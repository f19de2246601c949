//! Collective Perception basic service (CPM, ETSI TS 103 324 profile).
//!
//! A CPM carries the objects one station *perceives with its own
//! sensors* so that neighbouring stations can extend their LDM beyond
//! their own sensor range — the cooperative-perception step the paper's
//! testbed stops short of. The profile here is the subset the scenarios
//! need: the common PDU header (messageID 14), a management container
//! with the originator's type and reference position, and a perceived-
//! object container of up to [`Cpm::MAX_OBJECTS`] objects with planar
//! offsets relative to the originator.
//!
//! Like CAM and DENM, the message encodes to a compact UPER bit stream,
//! so a CPM on the simulated air interface has a realistic wire size
//! (a few dozen bytes for a handful of objects).
//!
//! # Example
//!
//! ```
//! use facilities::cpm::{Cpm, CpmPerceivedObject, ObjectClass};
//! use its_messages::common::{ReferencePosition, StationId, StationType};
//!
//! # fn main() -> Result<(), uper::UperError> {
//! let mut cpm = Cpm::new(
//!     StationId::new(15)?,
//!     StationType::RoadSideUnit,
//!     ReferencePosition::from_degrees(41.178, -8.608),
//!     1234,
//! )?;
//! cpm.perceived_objects.push(CpmPerceivedObject::from_planar(
//!     2,
//!     3.5,
//!     -1.0,
//!     ObjectClass::Person,
//!     88,
//! ));
//! let bytes = cpm.to_bytes()?;
//! assert_eq!(Cpm::from_bytes(&bytes)?, cpm);
//! # Ok(())
//! # }
//! ```

use its_messages::common::{ReferencePosition, StationId, StationType};
use its_messages::{ItsPduHeader, MessageId};
use sim_core::{SimDuration, SimTime};
use uper::{BitReader, BitWriter, Codec, UperError};

/// Classification of a perceived object (TS 103 324 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectClass {
    /// Classifier could not decide.
    #[default]
    Unknown,
    /// A vehicle.
    Vehicle,
    /// A vulnerable road user.
    Person,
    /// A static obstruction on the roadway.
    Obstacle,
}

impl ObjectClass {
    const VARIANTS: u64 = 4;

    fn index(&self) -> u64 {
        match self {
            ObjectClass::Unknown => 0,
            ObjectClass::Vehicle => 1,
            ObjectClass::Person => 2,
            ObjectClass::Obstacle => 3,
        }
    }

    fn from_index(i: u64) -> uper::Result<Self> {
        Ok(match i {
            0 => ObjectClass::Unknown,
            1 => ObjectClass::Vehicle,
            2 => ObjectClass::Person,
            3 => ObjectClass::Obstacle,
            other => {
                return Err(UperError::InvalidEnum {
                    index: other,
                    name: "ObjectClass",
                })
            }
        })
    }
}

impl Codec for ObjectClass {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_enumerated(self.index(), Self::VARIANTS)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Self::from_index(r.read_enumerated(Self::VARIANTS)?)
    }
}

/// One object of the perceived-object container. Distances and speeds
/// are planar offsets relative to the originating station, in the TS
/// 103 324 units (centimetres / cm-per-second).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpmPerceivedObject {
    /// Originator-scoped object identifier.
    pub object_id: u16,
    /// East-ish offset from the originator, cm (`-132768..=132767`).
    pub x_distance_cm: i32,
    /// North-ish offset from the originator, cm (`-132768..=132767`).
    pub y_distance_cm: i32,
    /// Object speed along x, cm/s (`-16383..=16383`).
    pub x_speed_cm_s: i16,
    /// Object speed along y, cm/s (`-16383..=16383`).
    pub y_speed_cm_s: i16,
    /// Detection confidence, percent (`0..=100`).
    pub confidence_pct: u8,
    /// Object classification.
    pub class: ObjectClass,
}

impl CpmPerceivedObject {
    const DISTANCE_MIN: i64 = -132_768;
    const DISTANCE_MAX: i64 = 132_767;
    const SPEED_MIN: i64 = -16_383;
    const SPEED_MAX: i64 = 16_383;
    const CONFIDENCE_MAX: u64 = 100;

    /// Builds an object from planar offsets in metres (x east-ish, y
    /// north-ish, relative to the originator), saturating to the wire
    /// ranges. Never fails: out-of-range sensor data clamps to the
    /// nearest encodable offset.
    pub fn from_planar(
        object_id: u16,
        dx_m: f64,
        dy_m: f64,
        class: ObjectClass,
        confidence_pct: u8,
    ) -> Self {
        let clamp_distance = |m: f64| -> i32 {
            let cm = m * 100.0;
            cm.clamp(Self::DISTANCE_MIN as f64, Self::DISTANCE_MAX as f64) as i32
        };
        Self {
            object_id,
            x_distance_cm: clamp_distance(dx_m),
            y_distance_cm: clamp_distance(dy_m),
            x_speed_cm_s: 0,
            y_speed_cm_s: 0,
            confidence_pct: confidence_pct.min(Self::CONFIDENCE_MAX as u8),
            class,
        }
    }

    /// Planar offset from the originator in metres.
    pub fn offset_m(&self) -> (f64, f64) {
        (
            f64::from(self.x_distance_cm) / 100.0,
            f64::from(self.y_distance_cm) / 100.0,
        )
    }
}

impl Codec for CpmPerceivedObject {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.object_id), 0, 65_535)?;
        w.write_constrained_i64(
            i64::from(self.x_distance_cm),
            Self::DISTANCE_MIN,
            Self::DISTANCE_MAX,
        )?;
        w.write_constrained_i64(
            i64::from(self.y_distance_cm),
            Self::DISTANCE_MIN,
            Self::DISTANCE_MAX,
        )?;
        w.write_constrained_i64(
            i64::from(self.x_speed_cm_s),
            Self::SPEED_MIN,
            Self::SPEED_MAX,
        )?;
        w.write_constrained_i64(
            i64::from(self.y_speed_cm_s),
            Self::SPEED_MIN,
            Self::SPEED_MAX,
        )?;
        w.write_constrained_u64(u64::from(self.confidence_pct), 0, Self::CONFIDENCE_MAX)?;
        self.class.encode(w)
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let object_id = r.read_constrained_u64(0, 65_535)? as u16;
        let x_distance_cm = r.read_constrained_i64(Self::DISTANCE_MIN, Self::DISTANCE_MAX)? as i32;
        let y_distance_cm = r.read_constrained_i64(Self::DISTANCE_MIN, Self::DISTANCE_MAX)? as i32;
        let x_speed_cm_s = r.read_constrained_i64(Self::SPEED_MIN, Self::SPEED_MAX)? as i16;
        let y_speed_cm_s = r.read_constrained_i64(Self::SPEED_MIN, Self::SPEED_MAX)? as i16;
        let confidence_pct = r.read_constrained_u64(0, Self::CONFIDENCE_MAX)? as u8;
        let class = ObjectClass::decode(r)?;
        Ok(Self {
            object_id,
            x_distance_cm,
            y_distance_cm,
            x_speed_cm_s,
            y_speed_cm_s,
            confidence_pct,
            class,
        })
    }
}

/// CPM management container: who is perceiving, from where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpmManagementContainer {
    /// Station type of the originator.
    pub station_type: StationType,
    /// Reference position of the originator; object offsets are
    /// relative to it.
    pub reference_position: ReferencePosition,
}

impl Codec for CpmManagementContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.station_type.encode(w)?;
        self.reference_position.encode(w)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            station_type: StationType::decode(r)?,
            reference_position: ReferencePosition::decode(r)?,
        })
    }
}

/// A Collective Perception Message.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpm {
    /// Common PDU header (`messageID` 14).
    pub header: ItsPduHeader,
    /// Milliseconds of the generation instant, modulo 65536.
    pub generation_delta_time: u16,
    /// Originator state.
    pub management: CpmManagementContainer,
    /// Perceived objects, at most [`Self::MAX_OBJECTS`].
    pub perceived_objects: Vec<CpmPerceivedObject>,
}

impl Cpm {
    /// Upper bound of the perceived-object container.
    pub const MAX_OBJECTS: usize = 128;

    /// A CPM with an empty perceived-object container.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` mirrors the other message
    /// constructors so callers handle all builders uniformly.
    pub fn new(
        station_id: StationId,
        station_type: StationType,
        reference_position: ReferencePosition,
        generation_delta_time: u16,
    ) -> uper::Result<Self> {
        Ok(Self {
            header: ItsPduHeader::new(MessageId::Cpm, station_id),
            generation_delta_time,
            management: CpmManagementContainer {
                station_type,
                reference_position,
            },
            perceived_objects: Vec::new(),
        })
    }

    /// Adds a perceived object (builder style). Objects past
    /// [`Self::MAX_OBJECTS`] are silently dropped — encoding would
    /// reject the container otherwise.
    #[must_use]
    #[cfg(test)]
    pub fn with_object(mut self, object: CpmPerceivedObject) -> Self {
        if self.perceived_objects.len() < Self::MAX_OBJECTS {
            self.perceived_objects.push(object);
        }
        self
    }

    /// Serializes to UPER bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if any field violates its constraint.
    pub fn to_bytes(&self) -> uper::Result<Vec<u8>> {
        uper::encode(self)
    }

    /// Parses a CPM from UPER bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated input, a non-CPM `messageID`, or
    /// constraint violations.
    pub fn from_bytes(bytes: &[u8]) -> uper::Result<Self> {
        uper::decode(bytes)
    }
}

impl Codec for Cpm {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.header.encode(w)?;
        w.write_constrained_u64(u64::from(self.generation_delta_time), 0, 65_535)?;
        self.management.encode(w)?;
        w.write_constrained_u64(
            self.perceived_objects.len() as u64,
            0,
            Self::MAX_OBJECTS as u64,
        )?;
        for object in &self.perceived_objects {
            object.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let header = ItsPduHeader::decode(r)?;
        if header.message_id != MessageId::Cpm {
            return Err(UperError::InvalidEnum {
                index: u64::from(header.message_id.code()),
                name: "Cpm",
            });
        }
        let generation_delta_time = r.read_constrained_u64(0, 65_535)? as u16;
        let management = CpmManagementContainer::decode(r)?;
        let count = r.read_constrained_u64(0, Self::MAX_OBJECTS as u64)? as usize;
        let mut perceived_objects = Vec::with_capacity(count);
        for _ in 0..count {
            perceived_objects.push(CpmPerceivedObject::decode(r)?);
        }
        Ok(Self {
            header,
            generation_delta_time,
            management,
            perceived_objects,
        })
    }
}

/// CP service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpServiceConfig {
    /// Minimum interval between generated CPMs (`T_GenCpm`).
    pub period: SimDuration,
    /// Objects carried per CPM at most (the freshest first).
    pub max_objects: usize,
    /// Generate a CPM even when no object is perceived (liveness
    /// beacon). Off by default: an empty perception shares nothing.
    pub send_empty: bool,
}

impl Default for CpServiceConfig {
    fn default() -> Self {
        Self {
            period: SimDuration::from_millis(100),
            max_objects: Cpm::MAX_OBJECTS,
            send_empty: false,
        }
    }
}

/// The CP basic service of one ITS station: rate-limits CPM generation
/// the way [`CaService`](crate::ca::CaService) does for CAMs.
///
/// # Example
///
/// ```
/// use facilities::cpm::{CpService, CpServiceConfig, CpmPerceivedObject, ObjectClass};
/// use its_messages::common::{ReferencePosition, StationId, StationType};
/// use sim_core::SimTime;
///
/// let mut cp = CpService::new(
///     StationId::new(15).unwrap(),
///     StationType::RoadSideUnit,
///     CpServiceConfig::default(),
/// );
/// let pos = ReferencePosition::from_degrees(41.178, -8.608);
/// let seen = [CpmPerceivedObject::from_planar(2, 3.0, 0.5, ObjectClass::Person, 90)];
/// // First poll with a perceived object produces a CPM.
/// assert!(cp.poll(SimTime::ZERO, pos, &seen).is_some());
/// // Inside the period, none is due.
/// assert!(cp.poll(SimTime::from_millis(50), pos, &seen).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CpService {
    station_id: StationId,
    station_type: StationType,
    config: CpServiceConfig,
    last: Option<SimTime>,
    generated: u64,
}

impl CpService {
    /// Creates the service for a station.
    pub fn new(station_id: StationId, station_type: StationType, config: CpServiceConfig) -> Self {
        Self {
            station_id,
            station_type,
            config,
            last: None,
            generated: 0,
        }
    }

    /// Total CPMs generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Polls the service: returns a CPM if one is due at `now` given
    /// the objects currently perceived by the station's own sensors.
    /// Objects beyond the configured cap are dropped, front-first.
    pub fn poll(
        &mut self,
        now: SimTime,
        position: ReferencePosition,
        objects: &[CpmPerceivedObject],
    ) -> Option<Cpm> {
        if objects.is_empty() && !self.config.send_empty {
            return None;
        }
        if let Some(last) = self.last {
            if now.saturating_duration_since(last) < self.config.period {
                return None;
            }
        }
        self.last = Some(now);
        self.generated += 1;
        let gdt = (now.as_millis() % 65_536) as u16;
        let cap = self.config.max_objects.min(Cpm::MAX_OBJECTS);
        let mut cpm = Cpm {
            header: ItsPduHeader::new(MessageId::Cpm, self.station_id),
            generation_delta_time: gdt,
            management: CpmManagementContainer {
                station_type: self.station_type,
                reference_position: position,
            },
            perceived_objects: Vec::with_capacity(objects.len().min(cap)),
        };
        for object in objects.iter().take(cap) {
            cpm.perceived_objects.push(*object);
        }
        Some(cpm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> ReferencePosition {
        ReferencePosition::from_degrees(41.178, -8.608)
    }

    fn sample_cpm(objects: usize) -> Cpm {
        let mut cpm = Cpm::new(
            StationId::new(15).unwrap(),
            StationType::RoadSideUnit,
            origin(),
            1234,
        )
        .unwrap();
        for i in 0..objects {
            cpm = cpm.with_object(CpmPerceivedObject {
                object_id: i as u16,
                x_distance_cm: 350 - i as i32 * 40,
                y_distance_cm: -120 + i as i32 * 17,
                x_speed_cm_s: 150,
                y_speed_cm_s: -42,
                confidence_pct: 88,
                class: ObjectClass::Person,
            });
        }
        cpm
    }

    #[test]
    fn roundtrip_with_objects() {
        for n in [0usize, 1, 3, 7] {
            let cpm = sample_cpm(n);
            let bytes = cpm.to_bytes().unwrap();
            assert_eq!(Cpm::from_bytes(&bytes).unwrap(), cpm);
        }
    }

    #[test]
    fn wire_size_is_compact() {
        // Mandatory-only CPM: header + gdt + management + empty count.
        let empty = sample_cpm(0).to_bytes().unwrap();
        assert!(empty.len() < 25, "empty CPM is {} bytes", empty.len());
        // Each object costs 91 bits ≈ 12 bytes on the wire.
        let five = sample_cpm(5).to_bytes().unwrap();
        assert!(
            five.len() < empty.len() + 5 * 12 + 2,
            "5-object CPM is {} bytes",
            five.len()
        );
    }

    #[test]
    fn rejects_non_cpm_message_id() {
        let cam_header = ItsPduHeader::new(MessageId::Cam, StationId::new(7).unwrap());
        let mut w = BitWriter::new();
        cam_header.encode(&mut w).unwrap();
        w.write_constrained_u64(0, 0, 65_535).unwrap();
        let bytes = w.finish();
        assert!(Cpm::from_bytes(&bytes).is_err());
    }

    #[test]
    fn out_of_range_object_fails_encode() {
        let mut cpm = sample_cpm(1);
        cpm.perceived_objects[0].x_distance_cm = 1_000_000;
        assert!(cpm.to_bytes().is_err());
    }

    #[test]
    fn from_planar_saturates_to_wire_ranges() {
        let o = CpmPerceivedObject::from_planar(1, 5_000.0, -5_000.0, ObjectClass::Vehicle, 250);
        assert_eq!(o.x_distance_cm, 132_767);
        assert_eq!(o.y_distance_cm, -132_768);
        assert_eq!(o.confidence_pct, 100);
        let (dx, dy) =
            CpmPerceivedObject::from_planar(1, 3.5, -1.0, ObjectClass::Person, 90).offset_m();
        assert!((dx - 3.5).abs() < 0.011 && (dy + 1.0).abs() < 0.011);
    }

    #[test]
    fn object_cap_drops_overflow() {
        let mut cpm = sample_cpm(0);
        for i in 0..(Cpm::MAX_OBJECTS + 10) {
            cpm = cpm.with_object(CpmPerceivedObject {
                object_id: i as u16,
                ..CpmPerceivedObject::default()
            });
        }
        assert_eq!(cpm.perceived_objects.len(), Cpm::MAX_OBJECTS);
        let bytes = cpm.to_bytes().unwrap();
        assert_eq!(
            Cpm::from_bytes(&bytes).unwrap().perceived_objects.len(),
            Cpm::MAX_OBJECTS
        );
    }

    #[test]
    fn service_rate_limits_and_counts() {
        let mut cp = CpService::new(
            StationId::new(15).unwrap(),
            StationType::RoadSideUnit,
            CpServiceConfig::default(),
        );
        let seen = [CpmPerceivedObject::from_planar(
            2,
            3.0,
            0.5,
            ObjectClass::Person,
            90,
        )];
        assert!(cp.poll(SimTime::ZERO, origin(), &seen).is_some());
        assert!(cp.poll(SimTime::from_millis(99), origin(), &seen).is_none());
        let cpm = cp.poll(SimTime::from_millis(100), origin(), &seen).unwrap();
        assert_eq!(cpm.perceived_objects.len(), 1);
        assert_eq!(cpm.generation_delta_time, 100);
        assert_eq!(cp.generated(), 2);
        // Nothing perceived, nothing shared (send_empty off).
        assert!(cp.poll(SimTime::from_millis(300), origin(), &[]).is_none());
    }

    #[test]
    fn service_send_empty_beacons() {
        let mut cp = CpService::new(
            StationId::new(15).unwrap(),
            StationType::RoadSideUnit,
            CpServiceConfig {
                send_empty: true,
                ..CpServiceConfig::default()
            },
        );
        let cpm = cp.poll(SimTime::ZERO, origin(), &[]).unwrap();
        assert!(cpm.perceived_objects.is_empty());
    }

    #[test]
    fn truncated_bytes_error_not_panic() {
        let bytes = sample_cpm(3).to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                Cpm::from_bytes(&bytes[..len]).is_err(),
                "truncation at {len} decoded"
            );
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
                let _ = Cpm::from_bytes(&bytes);
            }

            #[test]
            fn roundtrip_arbitrary_objects(
                n in 0usize..12,
                seed in any::<u64>(),
            ) {
                let mut rng = sim_core::SimRng::seed_from(seed);
                let mut cpm = sample_cpm(0);
                for i in 0..n {
                    cpm = cpm.with_object(CpmPerceivedObject {
                        object_id: i as u16,
                        x_distance_cm: rng.below(265_536) as i32 - 132_768,
                        y_distance_cm: rng.below(265_536) as i32 - 132_768,
                        x_speed_cm_s: (rng.below(32_767) as i32 - 16_383) as i16,
                        y_speed_cm_s: (rng.below(32_767) as i32 - 16_383) as i16,
                        confidence_pct: rng.below(101) as u8,
                        class: ObjectClass::from_index(rng.below(4)).unwrap(),
                    });
                }
                let bytes = cpm.to_bytes().unwrap();
                prop_assert_eq!(Cpm::from_bytes(&bytes).unwrap(), cpm);
            }
        }
    }
}
