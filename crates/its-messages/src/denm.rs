//! Decentralized Environmental Notification Messages (DENM,
//! ETSI EN 302 637-3).
//!
//! A DENM advertises a detected event to nearby stations. Its wire layout
//! (Figure 2 of the paper) is a common [`ItsPduHeader`] followed by four
//! containers — Management (mandatory), Situation, Location and À-la-carte
//! (all optional). The testbed's road-side unit sends a DENM with cause
//! code 97 (*collision risk*) to trigger emergency braking at the vehicle.

use crate::cause_codes::CauseCode;
use crate::common::{
    ActionId, Heading, PathHistory, ReferencePosition, RelevanceDistance,
    RelevanceTrafficDirection, Speed, StationId, StationType, TimestampIts,
};
use crate::header::{ItsPduHeader, MessageId};
use uper::{BitReader, BitWriter, Codec, Enumerated, SizeRange, UperError};

/// `Termination` flag in the Management container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The originator cancels its own event.
    IsCancellation,
    /// Another station negates the event.
    IsNegation,
}

impl Enumerated for Termination {
    const NAME: &'static str = "Termination";
    const ALL: &'static [Self] = &[Self::IsCancellation, Self::IsNegation];
}

/// DENM Management container (mandatory).
///
/// Identifies the event (`actionID`), when it was detected, where it is,
/// how long the notification stays valid, and who sent it.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagementContainer {
    /// Event identifier, stable across updates.
    pub action_id: ActionId,
    /// Time the event was detected.
    pub detection_time: TimestampIts,
    /// Time this particular DENM (original or update) was generated.
    pub reference_time: TimestampIts,
    /// Present in termination DENMs only.
    pub termination: Option<Termination>,
    /// Geographic position of the event.
    pub event_position: ReferencePosition,
    /// Distance band within which the event is relevant.
    pub relevance_distance: Option<RelevanceDistance>,
    /// Traffic direction for which the event is relevant.
    pub relevance_traffic_direction: Option<RelevanceTrafficDirection>,
    /// Validity duration in seconds, `[0, 86400]`. Defaults to 600 s.
    pub validity_duration: u32,
    /// Repetition interval in milliseconds, `[1, 10000]`, if repeated.
    pub transmission_interval_ms: Option<u16>,
    /// Type of the originating station.
    pub station_type: StationType,
}

/// Default `validityDuration` (seconds) per EN 302 637-3.
pub const DEFAULT_VALIDITY_DURATION_S: u32 = 600;

impl ManagementContainer {
    /// Creates a management container with the mandatory fields; validity
    /// defaults to [`DEFAULT_VALIDITY_DURATION_S`].
    pub fn new(
        action_id: ActionId,
        detection_time: TimestampIts,
        reference_time: TimestampIts,
        event_position: ReferencePosition,
        station_type: StationType,
    ) -> Self {
        Self {
            action_id,
            detection_time,
            reference_time,
            termination: None,
            event_position,
            relevance_distance: None,
            relevance_traffic_direction: None,
            validity_duration: DEFAULT_VALIDITY_DURATION_S,
            transmission_interval_ms: None,
            station_type,
        }
    }

    /// Validates the constrained scalar fields.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] for a bad validity duration or
    /// transmission interval.
    pub fn validate(&self) -> uper::Result<()> {
        if self.validity_duration > 86400 {
            return Err(UperError::OutOfRange {
                value: self.validity_duration as i128,
                min: 0,
                max: 86400,
            });
        }
        if let Some(ti) = self.transmission_interval_ms {
            if !(1..=10000).contains(&ti) {
                return Err(UperError::OutOfRange {
                    value: ti as i128,
                    min: 1,
                    max: 10000,
                });
            }
        }
        Ok(())
    }
}

impl Codec for ManagementContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.validate()?;
        // Optional-presence bitmap: termination, relevanceDistance,
        // relevanceTrafficDirection, transmissionInterval.
        w.write_bool(self.termination.is_some());
        w.write_bool(self.relevance_distance.is_some());
        w.write_bool(self.relevance_traffic_direction.is_some());
        w.write_bool(self.transmission_interval_ms.is_some());
        self.action_id.encode(w)?;
        self.detection_time.encode(w)?;
        self.reference_time.encode(w)?;
        if let Some(t) = self.termination {
            t.encode(w)?;
        }
        self.event_position.encode(w)?;
        if let Some(rd) = self.relevance_distance {
            rd.encode(w)?;
        }
        if let Some(rtd) = self.relevance_traffic_direction {
            rtd.encode(w)?;
        }
        w.write_constrained_u64(u64::from(self.validity_duration), 0, 86400)?;
        if let Some(ti) = self.transmission_interval_ms {
            w.write_constrained_u64(u64::from(ti), 1, 10000)?;
        }
        self.station_type.encode(w)
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_termination = r.read_bool()?;
        let has_rd = r.read_bool()?;
        let has_rtd = r.read_bool()?;
        let has_ti = r.read_bool()?;
        let action_id = ActionId::decode(r)?;
        let detection_time = TimestampIts::decode(r)?;
        let reference_time = TimestampIts::decode(r)?;
        let termination = if has_termination {
            Some(Termination::decode(r)?)
        } else {
            None
        };
        let event_position = ReferencePosition::decode(r)?;
        let relevance_distance = if has_rd {
            Some(RelevanceDistance::decode(r)?)
        } else {
            None
        };
        let relevance_traffic_direction = if has_rtd {
            Some(RelevanceTrafficDirection::decode(r)?)
        } else {
            None
        };
        let validity_duration = r.read_constrained_u64(0, 86400)? as u32;
        let transmission_interval_ms = if has_ti {
            Some(r.read_constrained_u64(1, 10000)? as u16)
        } else {
            None
        };
        let station_type = StationType::decode(r)?;
        Ok(Self {
            action_id,
            detection_time,
            reference_time,
            termination,
            event_position,
            relevance_distance,
            relevance_traffic_direction,
            validity_duration,
            transmission_interval_ms,
            station_type,
        })
    }
}

/// DENM Situation container (optional): what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SituationContainer {
    /// `informationQuality` `[0, 7]`; 0 = lowest.
    pub information_quality: u8,
    /// The event type (`causeCode` + `subCauseCode`).
    pub event_type: CauseCode,
    /// Optionally links to the cause of this event.
    pub linked_cause: Option<CauseCode>,
}

impl SituationContainer {
    /// Creates a situation container.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] if `information_quality > 7`.
    pub fn new(information_quality: u8, event_type: CauseCode) -> uper::Result<Self> {
        if information_quality > 7 {
            return Err(UperError::OutOfRange {
                value: information_quality as i128,
                min: 0,
                max: 7,
            });
        }
        Ok(Self {
            information_quality,
            event_type,
            linked_cause: None,
        })
    }
}

impl Codec for SituationContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_bool(self.linked_cause.is_some());
        w.write_constrained_u64(u64::from(self.information_quality), 0, 7)?;
        self.event_type.encode(w)?;
        if let Some(lc) = self.linked_cause {
            lc.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_linked = r.read_bool()?;
        let information_quality = r.read_constrained_u64(0, 7)? as u8;
        let event_type = CauseCode::decode(r)?;
        let linked_cause = if has_linked {
            Some(CauseCode::decode(r)?)
        } else {
            None
        };
        Ok(Self {
            information_quality,
            event_type,
            linked_cause,
        })
    }
}

/// `RoadType` of the Location container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadType {
    /// Urban road, no structural separation between directions.
    UrbanNoSeparation,
    /// Urban road with structural separation.
    UrbanWithSeparation,
    /// Non-urban road, no structural separation.
    NonUrbanNoSeparation,
    /// Non-urban road with structural separation.
    NonUrbanWithSeparation,
}

impl Enumerated for RoadType {
    const NAME: &'static str = "RoadType";
    const ALL: &'static [Self] = &[
        Self::UrbanNoSeparation,
        Self::UrbanWithSeparation,
        Self::NonUrbanNoSeparation,
        Self::NonUrbanWithSeparation,
    ];
}

/// Maximum number of traces in a Location container.
pub const MAX_TRACES: usize = 7;

/// DENM Location container (optional): where and how to reach the event.
///
/// `traces` is mandatory within the container — one to seven itineraries
/// leading to the event position.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationContainer {
    /// Speed of the event (e.g. a moving hazard), if known.
    pub event_speed: Option<Speed>,
    /// Heading of the event, if known.
    pub event_position_heading: Option<Heading>,
    /// Itineraries to the event (1..=7 path histories).
    pub traces: Vec<PathHistory>,
    /// Road type at the event position.
    pub road_type: Option<RoadType>,
}

impl LocationContainer {
    /// Creates a location container from traces.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::LengthTooLarge`] if `traces` is empty or holds
    /// more than [`MAX_TRACES`] entries.
    #[cfg(test)]
    pub fn new(traces: Vec<PathHistory>) -> uper::Result<Self> {
        if traces.is_empty() || traces.len() > MAX_TRACES {
            return Err(UperError::LengthTooLarge(traces.len()));
        }
        Ok(Self {
            event_speed: None,
            event_position_heading: None,
            traces,
            road_type: None,
        })
    }

    /// Sets the event speed.
    #[cfg(test)]
    pub fn with_event_speed(mut self, speed: Speed) -> Self {
        self.event_speed = Some(speed);
        self
    }

    /// Sets the event heading.
    #[cfg(test)]
    pub fn with_event_heading(mut self, heading: Heading) -> Self {
        self.event_position_heading = Some(heading);
        self
    }

    /// Sets the road type.
    #[cfg(test)]
    pub fn with_road_type(mut self, road_type: RoadType) -> Self {
        self.road_type = Some(road_type);
        self
    }
}

impl Codec for LocationContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        if self.traces.is_empty() || self.traces.len() > MAX_TRACES {
            return Err(UperError::LengthTooLarge(self.traces.len()));
        }
        w.write_bool(self.event_speed.is_some());
        w.write_bool(self.event_position_heading.is_some());
        w.write_bool(self.road_type.is_some());
        if let Some(s) = self.event_speed {
            s.encode(w)?;
        }
        if let Some(h) = self.event_position_heading {
            h.encode(w)?;
        }
        w.write_constrained_u64(self.traces.len() as u64, 1, MAX_TRACES as u64)?;
        for t in &self.traces {
            t.encode(w)?;
        }
        if let Some(rt) = self.road_type {
            rt.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_speed = r.read_bool()?;
        let has_heading = r.read_bool()?;
        let has_road_type = r.read_bool()?;
        let event_speed = if has_speed {
            Some(Speed::decode(r)?)
        } else {
            None
        };
        let event_position_heading = if has_heading {
            Some(Heading::decode(r)?)
        } else {
            None
        };
        let n = r.read_constrained_u64(1, MAX_TRACES as u64)? as usize;
        let mut traces = Vec::with_capacity(n);
        for _ in 0..n {
            traces.push(PathHistory::decode(r)?);
        }
        let road_type = if has_road_type {
            Some(RoadType::decode(r)?)
        } else {
            None
        };
        Ok(Self {
            event_speed,
            event_position_heading,
            traces,
            road_type,
        })
    }
}

/// How long a stationary vehicle has been stopped (`StationarySince`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationarySince {
    /// Less than 1 minute.
    LessThan1Minute,
    /// Less than 2 minutes.
    LessThan2Minutes,
    /// Less than 15 minutes.
    LessThan15Minutes,
    /// 15 minutes or more.
    EqualOrGreater15Minutes,
}

impl Enumerated for StationarySince {
    const NAME: &'static str = "StationarySince";
    const ALL: &'static [Self] = &[
        Self::LessThan1Minute,
        Self::LessThan2Minutes,
        Self::LessThan15Minutes,
        Self::EqualOrGreater15Minutes,
    ];
}

/// `StationaryVehicleContainer` of the À-la-carte container — the
/// container the paper's §II-C names for the stationary-vehicle warning
/// (cause code 94).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StationaryVehicleContainer {
    /// How long the vehicle has been stationary.
    pub stationary_since: Option<StationarySince>,
    /// Whether the vehicle carries dangerous goods.
    pub carrying_dangerous_goods: Option<bool>,
    /// Number of occupants, `[0, 126]` (127 = unavailable).
    pub number_of_occupants: Option<u8>,
}

impl Codec for StationaryVehicleContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_bool(self.stationary_since.is_some());
        w.write_bool(self.carrying_dangerous_goods.is_some());
        w.write_bool(self.number_of_occupants.is_some());
        if let Some(s) = self.stationary_since {
            s.encode(w)?;
        }
        if let Some(d) = self.carrying_dangerous_goods {
            w.write_bool(d);
        }
        if let Some(n) = self.number_of_occupants {
            w.write_constrained_u64(u64::from(n), 0, 127)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_since = r.read_bool()?;
        let has_goods = r.read_bool()?;
        let has_occupants = r.read_bool()?;
        let stationary_since = if has_since {
            Some(StationarySince::decode(r)?)
        } else {
            None
        };
        let carrying_dangerous_goods = if has_goods {
            Some(r.read_bool()?)
        } else {
            None
        };
        let number_of_occupants = if has_occupants {
            Some(r.read_constrained_u64(0, 127)? as u8)
        } else {
            None
        };
        Ok(Self {
            stationary_since,
            carrying_dangerous_goods,
            number_of_occupants,
        })
    }
}

/// DENM À-la-carte container (optional): use-case-specific extras —
/// "lanePosition, externalTemperature and stationaryVehicle" (§II-C).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlacarteContainer {
    /// Lane position: -1 = hard shoulder, 0 = outermost, ... `[−1, 14]`.
    pub lane_position: Option<i8>,
    /// External air temperature in °C, `[-60, 67]`.
    pub external_temperature: Option<i8>,
    /// Stationary-vehicle details (for cause code 94 warnings).
    pub stationary_vehicle: Option<StationaryVehicleContainer>,
    /// Free-text annotation used by the testbed logs (not in the ASN.1
    /// standard; carried as a bounded UTF8String).
    pub annotation: Option<String>,
}

/// Maximum byte length of the testbed annotation string.
pub const MAX_ANNOTATION_LEN: usize = 64;

impl AlacarteContainer {
    /// Validates constrained fields.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] or [`UperError::LengthTooLarge`].
    pub fn validate(&self) -> uper::Result<()> {
        if let Some(lane) = self.lane_position {
            if !(-1..=14).contains(&lane) {
                return Err(UperError::OutOfRange {
                    value: lane as i128,
                    min: -1,
                    max: 14,
                });
            }
        }
        if let Some(t) = self.external_temperature {
            if !(-60..=67).contains(&t) {
                return Err(UperError::OutOfRange {
                    value: t as i128,
                    min: -60,
                    max: 67,
                });
            }
        }
        if let Some(a) = &self.annotation {
            if a.len() > MAX_ANNOTATION_LEN {
                return Err(UperError::LengthTooLarge(a.len()));
            }
        }
        Ok(())
    }
}

impl Codec for AlacarteContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.validate()?;
        w.write_bool(self.lane_position.is_some());
        w.write_bool(self.external_temperature.is_some());
        w.write_bool(self.stationary_vehicle.is_some());
        w.write_bool(self.annotation.is_some());
        if let Some(lane) = self.lane_position {
            w.write_constrained_i64(i64::from(lane), -1, 14)?;
        }
        if let Some(t) = self.external_temperature {
            w.write_constrained_i64(i64::from(t), -60, 67)?;
        }
        if let Some(sv) = &self.stationary_vehicle {
            sv.encode(w)?;
        }
        if let Some(a) = &self.annotation {
            w.write_utf8_string(a, SizeRange::new(0, MAX_ANNOTATION_LEN))?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_lane = r.read_bool()?;
        let has_temp = r.read_bool()?;
        let has_sv = r.read_bool()?;
        let has_annotation = r.read_bool()?;
        let lane_position = if has_lane {
            Some(r.read_constrained_i64(-1, 14)? as i8)
        } else {
            None
        };
        let external_temperature = if has_temp {
            Some(r.read_constrained_i64(-60, 67)? as i8)
        } else {
            None
        };
        let stationary_vehicle = if has_sv {
            Some(StationaryVehicleContainer::decode(r)?)
        } else {
            None
        };
        let annotation = if has_annotation {
            Some(r.read_utf8_string(SizeRange::new(0, MAX_ANNOTATION_LEN))?)
        } else {
            None
        };
        Ok(Self {
            lane_position,
            external_temperature,
            stationary_vehicle,
            annotation,
        })
    }
}

/// A complete Decentralized Environmental Notification Message.
///
/// The testbed (per §III-D1 of the paper) uses DENMs with only the
/// mandatory structure — header plus Management container — which is what
/// [`Denm::new`] produces; the optional containers can be attached with the
/// `with_*` builders.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Denm {
    /// Common PDU header (messageID = 1).
    pub header: ItsPduHeader,
    /// Management container (mandatory).
    pub management: ManagementContainer,
    /// Situation container (optional).
    pub situation: Option<SituationContainer>,
    /// Location container (optional).
    pub location: Option<LocationContainer>,
    /// À-la-carte container (optional).
    pub alacarte: Option<AlacarteContainer>,
}

impl Denm {
    /// Creates a mandatory-structure DENM (header + Management only).
    pub fn new(station_id: StationId, management: ManagementContainer) -> Self {
        Self {
            header: ItsPduHeader::new(MessageId::Denm, station_id),
            management,
            situation: None,
            location: None,
            alacarte: None,
        }
    }

    /// Attaches a Situation container.
    pub fn with_situation(mut self, situation: SituationContainer) -> Self {
        self.situation = Some(situation);
        self
    }

    /// Attaches a Location container.
    #[cfg(test)]
    pub fn with_location(mut self, location: LocationContainer) -> Self {
        self.location = Some(location);
        self
    }

    /// Attaches an À-la-carte container.
    #[cfg(test)]
    pub fn with_alacarte(mut self, alacarte: AlacarteContainer) -> Self {
        self.alacarte = Some(alacarte);
        self
    }

    /// Whether this DENM terminates its event.
    pub fn is_termination(&self) -> bool {
        self.management.termination.is_some()
    }

    /// The event type, if a Situation container is present.
    pub fn event_type(&self) -> Option<CauseCode> {
        self.situation.map(|s| s.event_type)
    }

    /// Serializes to UPER bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if any field violates its constraint.
    pub fn to_bytes(&self) -> uper::Result<Vec<u8>> {
        uper::encode(self)
    }

    /// Parses from UPER bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or constraint violation.
    pub fn from_bytes(bytes: &[u8]) -> uper::Result<Self> {
        uper::decode(bytes)
    }
}

impl Codec for Denm {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.header.encode(w)?;
        w.write_bool(self.situation.is_some());
        w.write_bool(self.location.is_some());
        w.write_bool(self.alacarte.is_some());
        self.management.encode(w)?;
        if let Some(s) = &self.situation {
            s.encode(w)?;
        }
        if let Some(l) = &self.location {
            l.encode(w)?;
        }
        if let Some(a) = &self.alacarte {
            a.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let header = ItsPduHeader::decode_expecting(r, MessageId::Denm)?;
        let has_situation = r.read_bool()?;
        let has_location = r.read_bool()?;
        let has_alacarte = r.read_bool()?;
        let management = ManagementContainer::decode(r)?;
        let situation = if has_situation {
            Some(SituationContainer::decode(r)?)
        } else {
            None
        };
        let location = if has_location {
            Some(LocationContainer::decode(r)?)
        } else {
            None
        };
        let alacarte = if has_alacarte {
            Some(AlacarteContainer::decode(r)?)
        } else {
            None
        };
        Ok(Self {
            header,
            management,
            situation,
            location,
            alacarte,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause_codes::CollisionRiskSubCause;
    use crate::common::{PathHistory, PathPoint};
    use proptest::prelude::*;

    fn mgmt() -> ManagementContainer {
        ManagementContainer::new(
            ActionId::new(StationId::new(15).unwrap(), 1),
            TimestampIts::new(1_000_000).unwrap(),
            TimestampIts::new(1_000_005).unwrap(),
            ReferencePosition::from_degrees(41.1784, -8.6081),
            StationType::RoadSideUnit,
        )
    }

    fn collision_denm() -> Denm {
        Denm::new(StationId::new(15).unwrap(), mgmt()).with_situation(
            SituationContainer::new(
                7,
                CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
            )
            .unwrap(),
        )
    }

    #[test]
    fn mandatory_only_denm_roundtrip() {
        // §III-D1: "the testbed has used solely DENMs with the mandatory
        // structure (Header and Management Container)".
        let denm = Denm::new(StationId::new(15).unwrap(), mgmt());
        let bytes = denm.to_bytes().unwrap();
        let back = Denm::from_bytes(&bytes).unwrap();
        assert_eq!(denm, back);
        assert!(back.situation.is_none());
        assert!(back.location.is_none());
        assert!(back.alacarte.is_none());
        // Mandatory DENM stays compact like a real UPER DENM.
        assert!(bytes.len() < 50, "encoded to {} bytes", bytes.len());
    }

    #[test]
    fn full_denm_roundtrip() {
        let trace = PathHistory::new(vec![PathPoint::default(); 3]).unwrap();
        let denm = collision_denm()
            .with_location(
                LocationContainer::new(vec![trace])
                    .unwrap()
                    .with_event_speed(Speed::from_mps(1.5))
                    .with_event_heading(Heading::from_degrees(90.0))
                    .with_road_type(RoadType::UrbanNoSeparation),
            )
            .with_alacarte(AlacarteContainer {
                lane_position: Some(0),
                external_temperature: Some(21),
                stationary_vehicle: None,
                annotation: Some("action-point crossing".to_owned()),
            });
        let bytes = denm.to_bytes().unwrap();
        let back = Denm::from_bytes(&bytes).unwrap();
        assert_eq!(denm, back);
        assert_eq!(
            back.event_type().unwrap().cause_code(),
            97,
            "collision risk cause code"
        );
    }

    #[test]
    fn termination_denm() {
        let mut m = mgmt();
        m.termination = Some(Termination::IsCancellation);
        let denm = Denm::new(StationId::new(15).unwrap(), m);
        assert!(denm.is_termination());
        let back = Denm::from_bytes(&denm.to_bytes().unwrap()).unwrap();
        assert_eq!(
            back.management.termination,
            Some(Termination::IsCancellation)
        );
    }

    #[test]
    fn management_validation() {
        let mut m = mgmt();
        m.validity_duration = 86401;
        assert!(m.validate().is_err());
        m.validity_duration = 600;
        m.transmission_interval_ms = Some(0);
        assert!(m.validate().is_err());
        m.transmission_interval_ms = Some(10000);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn situation_information_quality_bounds() {
        assert!(SituationContainer::new(8, CauseCode::from_codes(10, 0)).is_err());
        assert!(SituationContainer::new(7, CauseCode::from_codes(10, 0)).is_ok());
    }

    #[test]
    fn location_requires_one_to_seven_traces() {
        assert!(LocationContainer::new(vec![]).is_err());
        let t = PathHistory::default();
        assert!(LocationContainer::new(vec![t.clone(); 8]).is_err());
        assert!(LocationContainer::new(vec![t; 7]).is_ok());
    }

    #[test]
    fn alacarte_bounds() {
        let a = AlacarteContainer {
            lane_position: Some(15),
            ..Default::default()
        };
        assert!(a.validate().is_err());
        let a = AlacarteContainer {
            external_temperature: Some(68),
            ..Default::default()
        };
        assert!(a.validate().is_err());
        let a = AlacarteContainer {
            annotation: Some("x".repeat(65)),
            ..Default::default()
        };
        assert!(a.validate().is_err());
    }

    #[test]
    fn stationary_vehicle_container_roundtrip() {
        // §II-C: a stationary-vehicle warning (cause 94) with the
        // dedicated à-la-carte container.
        let denm = Denm::new(StationId::new(15).unwrap(), mgmt())
            .with_situation(SituationContainer::new(6, CauseCode::from_codes(94, 2)).unwrap())
            .with_alacarte(AlacarteContainer {
                stationary_vehicle: Some(StationaryVehicleContainer {
                    stationary_since: Some(StationarySince::LessThan2Minutes),
                    carrying_dangerous_goods: Some(false),
                    number_of_occupants: Some(1),
                }),
                ..Default::default()
            });
        let back = Denm::from_bytes(&denm.to_bytes().unwrap()).unwrap();
        assert_eq!(back, denm);
        let sv = back.alacarte.unwrap().stationary_vehicle.unwrap();
        assert_eq!(sv.stationary_since, Some(StationarySince::LessThan2Minutes));
        assert_eq!(sv.number_of_occupants, Some(1));
    }

    #[test]
    fn stationary_since_all_variants_roundtrip() {
        for s in [
            StationarySince::LessThan1Minute,
            StationarySince::LessThan2Minutes,
            StationarySince::LessThan15Minutes,
            StationarySince::EqualOrGreater15Minutes,
        ] {
            let bytes = uper::encode(&s).unwrap();
            assert_eq!(uper::decode::<StationarySince>(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn detection_and_reference_time_independent() {
        let denm = collision_denm();
        let back = Denm::from_bytes(&denm.to_bytes().unwrap()).unwrap();
        assert_eq!(back.management.detection_time.millis(), 1_000_000);
        assert_eq!(back.management.reference_time.millis(), 1_000_005);
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Robust reception: garbage from the radio must produce an
            // error, never a panic.
            let _ = Denm::from_bytes(&bytes);
        }

        #[test]
        fn truncated_valid_denm_errors_cleanly(cut in 0usize..40) {
            let denm = collision_denm();
            let bytes = denm.to_bytes().unwrap();
            let cut = cut.min(bytes.len().saturating_sub(1));
            // Either a clean error or (for cuts past all mandatory
            // fields, impossible here) a value — never a panic.
            prop_assert!(Denm::from_bytes(&bytes[..cut]).is_err());
        }

        #[test]
        fn denm_roundtrip_arbitrary(
            seq in any::<u16>(),
            detect_ms in 0u64..1 << 40,
            lat in -90.0f64..90.0,
            lon in -180.0f64..180.0,
            validity in 0u32..=86400,
            iq in 0u8..=7,
            cause in any::<u8>(),
            sub in any::<u8>(),
            has_situation in any::<bool>(),
            lane in proptest::option::of(-1i8..=14),
        ) {
            let mut m = ManagementContainer::new(
                ActionId::new(StationId::new(9).unwrap(), seq),
                TimestampIts::new(detect_ms).unwrap(),
                TimestampIts::new(detect_ms + 5).unwrap(),
                ReferencePosition::from_degrees(lat, lon),
                StationType::RoadSideUnit,
            );
            m.validity_duration = validity;
            let mut denm = Denm::new(StationId::new(9).unwrap(), m);
            if has_situation {
                denm = denm.with_situation(
                    SituationContainer::new(iq, CauseCode::from_codes(cause, sub)).unwrap(),
                );
            }
            if lane.is_some() {
                denm = denm.with_alacarte(AlacarteContainer {
                    lane_position: lane,
                    ..Default::default()
                });
            }
            let bytes = denm.to_bytes().unwrap();
            prop_assert_eq!(Denm::from_bytes(&bytes).unwrap(), denm);
        }
    }
}
