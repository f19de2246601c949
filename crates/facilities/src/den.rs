//! Decentralized Environmental Notification basic service
//! (ETSI EN 302 637-3).
//!
//! The originating side implements the `AppDENM_trigger`, `AppDENM_update`
//! and `AppDENM_terminate` interfaces the application layer calls (in the
//! testbed, the Hazard Advertisement Service calls `trigger` through the
//! OpenC2X HTTP API). Triggered events are retransmitted at the requested
//! repetition interval until their repetition duration elapses.
//!
//! The receiving side de-duplicates by `(ActionID, referenceTime)` and
//! hands genuinely new or updated DENMs to the application (the vehicle's
//! Message Handler).

use its_messages::cause_codes::CauseCode;
use its_messages::common::{
    ActionId, ReferencePosition, RelevanceDistance, StationId, StationType, TimestampIts,
};
use its_messages::denm::{Denm, ManagementContainer, SituationContainer};
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// An application request to advertise an event (input to
/// [`DenService::trigger`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DenRequest {
    /// Time the event was detected (station wall clock).
    pub detection_time: TimestampIts,
    /// Position of the event.
    pub event_position: ReferencePosition,
    /// Event classification for the Situation container.
    pub cause: CauseCode,
    /// Information quality `[0, 7]`.
    pub information_quality: u8,
    /// How long the notification remains valid.
    pub validity_duration_s: u32,
    /// Repetition interval between consecutive transmissions, if the
    /// event should be repeated.
    pub repetition_interval: Option<SimDuration>,
    /// Total duration over which repetitions continue.
    pub repetition_duration: Option<SimDuration>,
    /// Relevance distance band.
    pub relevance_distance: Option<RelevanceDistance>,
}

impl DenRequest {
    /// A one-shot (no repetition) request, as the testbed's collision
    /// avoidance application issues.
    pub fn one_shot(
        detection_time: TimestampIts,
        event_position: ReferencePosition,
        cause: CauseCode,
    ) -> Self {
        Self {
            detection_time,
            event_position,
            cause,
            information_quality: 7,
            validity_duration_s: 600,
            repetition_interval: None,
            repetition_duration: None,
            relevance_distance: Some(RelevanceDistance::LessThan50m),
        }
    }
}

/// One active originated event.
#[derive(Debug, Clone)]
struct ActiveEvent {
    request: DenRequest,
    action_id: ActionId,
    /// Next scheduled transmission, if any.
    next_tx: Option<SimTime>,
    /// When repetitions stop.
    repeat_until: SimTime,
    /// Cancelled by the application.
    terminated: bool,
}

/// The DEN basic service of one ITS station (originator + receiver roles).
///
/// # Example
///
/// ```
/// use facilities::den::{DenRequest, DenService};
/// use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
/// use its_messages::common::{ReferencePosition, StationId, StationType, TimestampIts};
/// use sim_core::SimTime;
///
/// let mut den = DenService::new(
///     StationId::new(15).unwrap(), StationType::RoadSideUnit);
/// let action = den.trigger(
///     SimTime::ZERO,
///     TimestampIts::new(1000).unwrap(),
///     DenRequest::one_shot(
///         TimestampIts::new(1000).unwrap(),
///         ReferencePosition::from_degrees(41.178, -8.608),
///         CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
///     ),
/// );
/// let due = den.poll(SimTime::ZERO, TimestampIts::new(1000).unwrap());
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].management.action_id, action);
/// ```
#[derive(Debug, Clone)]
pub struct DenService {
    station_id: StationId,
    station_type: StationType,
    next_sequence: u16,
    events: Vec<ActiveEvent>,
    /// Receiver-side table: latest `referenceTime` seen per action id.
    received: BTreeMap<ActionId, TimestampIts>,
}

impl DenService {
    /// Creates the service for a station.
    pub fn new(station_id: StationId, station_type: StationType) -> Self {
        Self {
            station_id,
            station_type,
            next_sequence: 0,
            events: Vec::new(),
            received: BTreeMap::new(),
        }
    }

    /// Number of events this originator still tracks.
    pub fn active_events(&self) -> usize {
        self.events.iter().filter(|e| !e.terminated).count()
    }

    /// `AppDENM_trigger`: registers a new event and schedules its first
    /// transmission immediately. Returns the allocated [`ActionId`].
    pub fn trigger(&mut self, now: SimTime, _wall: TimestampIts, request: DenRequest) -> ActionId {
        let action_id = ActionId::new(self.station_id, self.next_sequence);
        self.next_sequence = self.next_sequence.wrapping_add(1);
        let repeat_until = match (request.repetition_interval, request.repetition_duration) {
            (Some(_), Some(d)) => now + d,
            _ => now,
        };
        self.events.push(ActiveEvent {
            request,
            action_id,
            next_tx: Some(now),
            repeat_until,
            terminated: false,
        });
        action_id
    }

    /// `AppDENM_update`: replaces the event description and schedules an
    /// immediate retransmission. Returns `false` if the action id is
    /// unknown or already terminated.
    pub fn update(&mut self, now: SimTime, action_id: ActionId, request: DenRequest) -> bool {
        if let Some(ev) = self
            .events
            .iter_mut()
            .find(|e| e.action_id == action_id && !e.terminated)
        {
            let repeat_until = match (request.repetition_interval, request.repetition_duration) {
                (Some(_), Some(d)) => now + d,
                _ => now,
            };
            ev.request = request;
            ev.next_tx = Some(now);
            ev.repeat_until = repeat_until;
            true
        } else {
            false
        }
    }

    /// `AppDENM_terminate`: emits a cancellation DENM and stops
    /// repetitions. Returns the cancellation message, or `None` if the
    /// action id is unknown.
    #[cfg(test)]
    pub fn terminate(
        &mut self,
        _now: SimTime,
        wall: TimestampIts,
        action_id: ActionId,
    ) -> Option<Denm> {
        let ev = self
            .events
            .iter_mut()
            .find(|e| e.action_id == action_id && !e.terminated)?;
        ev.terminated = true;
        ev.next_tx = None;
        let mut management = ManagementContainer::new(
            action_id,
            ev.request.detection_time,
            wall,
            ev.request.event_position,
            self.station_type,
        );
        management.termination = Some(its_messages::denm::Termination::IsCancellation);
        management.validity_duration = ev.request.validity_duration_s;
        Some(Denm::new(self.station_id, management))
    }

    /// Returns every DENM due for transmission at `now`, advancing the
    /// repetition schedule. `wall` is the station's wall clock, stamped
    /// into `referenceTime`.
    pub fn poll(&mut self, now: SimTime, wall: TimestampIts) -> Vec<Denm> {
        let mut out = Vec::new();
        self.poll_into(now, wall, &mut out);
        out
    }

    /// [`poll`](Self::poll) into a caller-provided buffer, appending the
    /// due DENMs. Lets a per-event hot path reuse one buffer across
    /// polls instead of allocating a fresh `Vec` each time.
    pub fn poll_into(&mut self, now: SimTime, wall: TimestampIts, out: &mut Vec<Denm>) {
        for ev in &mut self.events {
            let Some(next_tx) = ev.next_tx else { continue };
            if next_tx > now {
                continue;
            }
            let mut management = ManagementContainer::new(
                ev.action_id,
                ev.request.detection_time,
                wall,
                ev.request.event_position,
                self.station_type,
            );
            management.validity_duration = ev.request.validity_duration_s;
            management.relevance_distance = ev.request.relevance_distance;
            management.transmission_interval_ms = ev
                .request
                .repetition_interval
                .map(|i| (i.as_millis().clamp(1, 10000)) as u16);
            let situation =
                SituationContainer::new(ev.request.information_quality.min(7), ev.request.cause)
                    .expect("information quality clamped to range");
            out.push(Denm::new(self.station_id, management).with_situation(situation));
            // Schedule the next repetition, if within the repetition window.
            ev.next_tx = match ev.request.repetition_interval {
                Some(interval) => {
                    let next = now + interval;
                    (next <= ev.repeat_until).then_some(next)
                }
                None => None,
            };
        }
    }

    /// The next instant any transmission is due, for efficient scheduling.
    pub fn next_due(&self) -> Option<SimTime> {
        self.events.iter().filter_map(|e| e.next_tx).min()
    }

    /// Receiver role: processes an incoming DENM. Returns `true` if the
    /// message is new (or a genuine update) and should be delivered to the
    /// application; duplicates and stale updates return `false`.
    pub fn receive(&mut self, denm: &Denm) -> bool {
        let action = denm.management.action_id;
        let reference = denm.management.reference_time;
        match self.received.get(&action) {
            Some(&latest) if latest >= reference => false,
            _ => {
                self.received.insert(action, reference);
                true
            }
        }
    }

    /// Drops receiver-side state older than `max_age_ms` relative to the
    /// given wall time (simple validity GC).
    #[cfg(test)]
    pub fn gc_received(&mut self, wall: TimestampIts, max_age_ms: u64) {
        self.received
            .retain(|_, &mut seen| wall.millis().saturating_sub(seen.millis()) <= max_age_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_messages::cause_codes::CollisionRiskSubCause;

    fn wall(ms: u64) -> TimestampIts {
        TimestampIts::new(ms).unwrap()
    }

    fn collision_request(detect_ms: u64) -> DenRequest {
        DenRequest::one_shot(
            wall(detect_ms),
            ReferencePosition::from_degrees(41.178, -8.608),
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
        )
    }

    fn service() -> DenService {
        DenService::new(StationId::new(15).unwrap(), StationType::RoadSideUnit)
    }

    #[test]
    fn one_shot_transmits_exactly_once() {
        let mut den = service();
        den.trigger(SimTime::ZERO, wall(100), collision_request(100));
        assert_eq!(den.poll(SimTime::ZERO, wall(100)).len(), 1);
        assert!(den.poll(SimTime::from_millis(10), wall(110)).is_empty());
        assert!(den.next_due().is_none());
    }

    #[test]
    fn denm_carries_request_fields() {
        let mut den = service();
        den.trigger(SimTime::ZERO, wall(100), collision_request(42));
        let denms = den.poll(SimTime::ZERO, wall(100));
        let d = &denms[0];
        assert_eq!(d.management.detection_time, wall(42));
        assert_eq!(d.management.reference_time, wall(100));
        assert_eq!(d.event_type().unwrap().cause_code(), 97);
        assert_eq!(
            d.management.relevance_distance,
            Some(RelevanceDistance::LessThan50m)
        );
        assert_eq!(d.management.station_type, StationType::RoadSideUnit);
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut den = service();
        let a = den.trigger(SimTime::ZERO, wall(0), collision_request(0));
        let b = den.trigger(SimTime::ZERO, wall(0), collision_request(0));
        assert_eq!(a.sequence_number + 1, b.sequence_number);
    }

    #[test]
    fn repetition_schedule() {
        let mut den = service();
        let mut req = collision_request(0);
        req.repetition_interval = Some(SimDuration::from_millis(100));
        req.repetition_duration = Some(SimDuration::from_millis(350));
        den.trigger(SimTime::ZERO, wall(0), req);
        let mut count = 0;
        for ms in (0..=1000).step_by(10) {
            count += den.poll(SimTime::from_millis(ms), wall(ms)).len();
        }
        // t = 0, 100, 200, 300 (400 > 350 window).
        assert_eq!(count, 4);
    }

    #[test]
    fn repetition_interval_stamped_in_management() {
        let mut den = service();
        let mut req = collision_request(0);
        req.repetition_interval = Some(SimDuration::from_millis(100));
        req.repetition_duration = Some(SimDuration::from_millis(200));
        den.trigger(SimTime::ZERO, wall(0), req);
        let denms = den.poll(SimTime::ZERO, wall(0));
        assert_eq!(denms[0].management.transmission_interval_ms, Some(100));
    }

    #[test]
    fn update_replaces_and_retransmits() {
        let mut den = service();
        let action = den.trigger(SimTime::ZERO, wall(0), collision_request(0));
        den.poll(SimTime::ZERO, wall(0));
        let mut updated = collision_request(0);
        updated.cause = CauseCode::HazardousLocationObstacleOnTheRoad(0);
        assert!(den.update(SimTime::from_millis(50), action, updated));
        let denms = den.poll(SimTime::from_millis(50), wall(50));
        assert_eq!(denms.len(), 1);
        assert_eq!(denms[0].event_type().unwrap().cause_code(), 10);
        // Unknown action id.
        let bogus = ActionId::new(StationId::new(99).unwrap(), 0);
        assert!(!den.update(SimTime::from_millis(60), bogus, collision_request(0)));
    }

    #[test]
    fn terminate_emits_cancellation_and_stops() {
        let mut den = service();
        let mut req = collision_request(0);
        req.repetition_interval = Some(SimDuration::from_millis(100));
        req.repetition_duration = Some(SimDuration::from_secs(10));
        let action = den.trigger(SimTime::ZERO, wall(0), req);
        den.poll(SimTime::ZERO, wall(0));
        let cancel = den
            .terminate(SimTime::from_millis(150), wall(150), action)
            .unwrap();
        assert!(cancel.is_termination());
        assert_eq!(den.active_events(), 0);
        assert!(den.poll(SimTime::from_millis(200), wall(200)).is_empty());
        // Double-terminate returns None.
        assert!(den
            .terminate(SimTime::from_millis(300), wall(300), action)
            .is_none());
    }

    #[test]
    fn receiver_dedupes_by_action_and_reference_time() {
        let mut tx = service();
        tx.trigger(SimTime::ZERO, wall(100), collision_request(100));
        let denm = tx.poll(SimTime::ZERO, wall(100)).remove(0);

        let mut rx = DenService::new(StationId::new(1).unwrap(), StationType::PassengerCar);
        assert!(rx.receive(&denm), "first copy is new");
        assert!(!rx.receive(&denm), "exact duplicate dropped");

        // An update with a later referenceTime passes.
        let mut newer = denm.clone();
        newer.management.reference_time = wall(200);
        assert!(rx.receive(&newer));
        // A stale copy with the old referenceTime is now dropped.
        assert!(!rx.receive(&denm));
    }

    #[test]
    fn receiver_gc_expires_entries() {
        let mut tx = service();
        tx.trigger(SimTime::ZERO, wall(100), collision_request(100));
        let denm = tx.poll(SimTime::ZERO, wall(100)).remove(0);
        let mut rx = DenService::new(StationId::new(1).unwrap(), StationType::PassengerCar);
        rx.receive(&denm);
        rx.gc_received(wall(100 + 5000), 1000);
        // After GC the same message counts as new again.
        assert!(rx.receive(&denm));
    }

    #[test]
    fn next_due_tracks_earliest_repetition() {
        let mut den = service();
        let mut req = collision_request(0);
        req.repetition_interval = Some(SimDuration::from_millis(100));
        req.repetition_duration = Some(SimDuration::from_secs(1));
        den.trigger(SimTime::ZERO, wall(0), req);
        assert_eq!(den.next_due(), Some(SimTime::ZERO));
        den.poll(SimTime::ZERO, wall(0));
        assert_eq!(den.next_due(), Some(SimTime::from_millis(100)));
    }
}
