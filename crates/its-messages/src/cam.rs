//! Cooperative Awareness Messages (CAM, ETSI EN 302 637-2).
//!
//! CAMs are broadcast cyclically by every ITS station; in the testbed's
//! use-case the protagonist vehicle's OBU sends CAMs that the road-side
//! infrastructure stores in its LDM to track the vehicle's state.

use crate::common::{Heading, PathHistory, ReferencePosition, Speed, StationId, StationType};
use crate::header::{ItsPduHeader, MessageId};
use uper::{BitReader, BitWriter, Codec, Enumerated, UperError};

/// `DriveDirection` of the high-frequency container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriveDirection {
    /// Moving forward.
    #[default]
    Forward,
    /// Moving backward.
    Backward,
    /// Direction unavailable.
    Unavailable,
}

impl Enumerated for DriveDirection {
    const NAME: &'static str = "DriveDirection";
    const ALL: &'static [Self] = &[Self::Forward, Self::Backward, Self::Unavailable];
}

/// `VehicleRole` of the low-frequency container (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VehicleRole {
    /// Default role (code 0).
    #[default]
    Default,
    /// Public transport (code 1).
    PublicTransport,
    /// Special transport (code 2).
    SpecialTransport,
    /// Dangerous goods (code 3).
    DangerousGoods,
    /// Road work (code 4).
    RoadWork,
    /// Rescue (code 5).
    Rescue,
    /// Emergency (code 6).
    Emergency,
    /// Safety car (code 7).
    SafetyCar,
}

impl Enumerated for VehicleRole {
    const NAME: &'static str = "VehicleRole";
    const ALL: &'static [Self] = &[
        Self::Default,
        Self::PublicTransport,
        Self::SpecialTransport,
        Self::DangerousGoods,
        Self::RoadWork,
        Self::Rescue,
        Self::Emergency,
        Self::SafetyCar,
    ];
}

/// CAM basic container: who and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BasicContainer {
    /// Station type of the originating station.
    pub station_type: StationType,
    /// Latest geographic position.
    pub reference_position: ReferencePosition,
}

impl Codec for BasicContainer {
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

/// CAM high-frequency container: fast-changing dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HighFrequencyContainer {
    /// Heading over ground.
    pub heading: Heading,
    /// Speed over ground.
    pub speed: Speed,
    /// Direction of travel.
    pub drive_direction: DriveDirection,
    /// Vehicle length in 0.1 m, `[1, 1023]` (1023 = unavailable).
    pub vehicle_length: u16,
    /// Vehicle width in 0.1 m, `[1, 62]` (62 = unavailable).
    pub vehicle_width: u8,
    /// Longitudinal acceleration in 0.1 m/s², `[-160, 161]`
    /// (161 = unavailable).
    pub longitudinal_acceleration: i16,
    /// Yaw rate in 0.01 °/s, `[-32766, 32767]` (32767 = unavailable).
    pub yaw_rate: i32,
}

impl HighFrequencyContainer {
    /// Validates all constrained fields.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] naming the first offending field
    /// range.
    pub fn validate(&self) -> uper::Result<()> {
        check_range(i64::from(self.vehicle_length), 1, 1023)?;
        check_range(i64::from(self.vehicle_width), 1, 62)?;
        check_range(i64::from(self.longitudinal_acceleration), -160, 161)?;
        check_range(i64::from(self.yaw_rate), -32766, 32767)?;
        Ok(())
    }
}

impl Default for HighFrequencyContainer {
    fn default() -> Self {
        Self {
            heading: Heading::UNAVAILABLE,
            speed: Speed::UNAVAILABLE,
            drive_direction: DriveDirection::Unavailable,
            vehicle_length: 1023,
            vehicle_width: 62,
            longitudinal_acceleration: 161,
            yaw_rate: 32767,
        }
    }
}

fn check_range(value: i64, min: i64, max: i64) -> uper::Result<()> {
    if value < min || value > max {
        return Err(UperError::OutOfRange {
            value: value as i128,
            min: min as i128,
            max: max as i128,
        });
    }
    Ok(())
}

impl Codec for HighFrequencyContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.validate()?;
        self.heading.encode(w)?;
        self.speed.encode(w)?;
        self.drive_direction.encode(w)?;
        w.write_constrained_u64(u64::from(self.vehicle_length), 1, 1023)?;
        w.write_constrained_u64(u64::from(self.vehicle_width), 1, 62)?;
        w.write_constrained_i64(i64::from(self.longitudinal_acceleration), -160, 161)?;
        w.write_constrained_i64(i64::from(self.yaw_rate), -32766, 32767)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            heading: Heading::decode(r)?,
            speed: Speed::decode(r)?,
            drive_direction: DriveDirection::decode(r)?,
            vehicle_length: r.read_constrained_u64(1, 1023)? as u16,
            vehicle_width: r.read_constrained_u64(1, 62)? as u8,
            longitudinal_acceleration: r.read_constrained_i64(-160, 161)? as i16,
            yaw_rate: r.read_constrained_i64(-32766, 32767)? as i32,
        })
    }
}

/// CAM low-frequency container: slowly-changing attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LowFrequencyContainer {
    /// Role of the vehicle.
    pub vehicle_role: VehicleRole,
    /// Exterior lights bitmap (8 bits: low beam, high beam, left turn,
    /// right turn, daytime running, reverse, fog, parking).
    pub exterior_lights: u8,
    /// Recently travelled path.
    pub path_history: PathHistory,
}

impl Codec for LowFrequencyContainer {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.vehicle_role.encode(w)?;
        w.write_bits(u64::from(self.exterior_lights), 8);
        self.path_history.encode(w)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            vehicle_role: VehicleRole::decode(r)?,
            exterior_lights: r.read_bits(8)? as u8,
            path_history: PathHistory::decode(r)?,
        })
    }
}

/// A complete Cooperative Awareness Message.
///
/// # Example
///
/// ```
/// use its_messages::cam::Cam;
/// use its_messages::common::{ReferencePosition, StationId, StationType};
///
/// # fn main() -> Result<(), uper::UperError> {
/// let cam = Cam::basic(
///     StationId::new(11)?,
///     500,
///     StationType::PassengerCar,
///     ReferencePosition::from_degrees(41.178, -8.608),
/// );
/// let bytes = cam.to_bytes()?;
/// assert_eq!(Cam::from_bytes(&bytes)?, cam);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cam {
    /// Common PDU header (messageID = 2).
    pub header: ItsPduHeader,
    /// `generationDeltaTime`: `TimestampIts mod 65536` of generation time.
    pub generation_delta_time: u16,
    /// Basic container (mandatory).
    pub basic: BasicContainer,
    /// High-frequency container (mandatory).
    pub high_frequency: HighFrequencyContainer,
    /// Low-frequency container (optional).
    pub low_frequency: Option<LowFrequencyContainer>,
}

impl Cam {
    /// Builds a CAM with default dynamics (heading/speed unavailable).
    pub fn basic(
        station_id: StationId,
        generation_delta_time: u16,
        station_type: StationType,
        position: ReferencePosition,
    ) -> Self {
        Self {
            header: ItsPduHeader::new(MessageId::Cam, station_id),
            generation_delta_time,
            basic: BasicContainer {
                station_type,
                reference_position: position,
            },
            high_frequency: HighFrequencyContainer::default(),
            low_frequency: None,
        }
    }

    /// Sets heading and speed in the high-frequency container.
    pub fn with_dynamics(mut self, heading: Heading, speed: Speed) -> Self {
        self.high_frequency.heading = heading;
        self.high_frequency.speed = speed;
        self.high_frequency.drive_direction = DriveDirection::Forward;
        self
    }

    /// Attaches a low-frequency container.
    pub fn with_low_frequency(mut self, lf: LowFrequencyContainer) -> Self {
        self.low_frequency = Some(lf);
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

    /// Parses from UPER bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or constraint violation.
    pub fn from_bytes(bytes: &[u8]) -> uper::Result<Self> {
        uper::decode(bytes)
    }
}

impl Codec for Cam {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.header.encode(w)?;
        w.write_bool(self.low_frequency.is_some()); // optional-presence bitmap
        w.write_constrained_u64(u64::from(self.generation_delta_time), 0, 65535)?;
        self.basic.encode(w)?;
        self.high_frequency.encode(w)?;
        if let Some(lf) = &self.low_frequency {
            lf.encode(w)?;
        }
        Ok(())
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let header = ItsPduHeader::decode_expecting(r, MessageId::Cam)?;
        let has_lf = r.read_bool()?;
        let generation_delta_time = r.read_constrained_u64(0, 65535)? as u16;
        let basic = BasicContainer::decode(r)?;
        let high_frequency = HighFrequencyContainer::decode(r)?;
        let low_frequency = if has_lf {
            Some(LowFrequencyContainer::decode(r)?)
        } else {
            None
        };
        Ok(Self {
            header,
            generation_delta_time,
            basic,
            high_frequency,
            low_frequency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{PathPoint, TimestampIts};
    use proptest::prelude::*;

    fn sample_cam() -> Cam {
        Cam::basic(
            StationId::new(77).unwrap(),
            4321,
            StationType::PassengerCar,
            ReferencePosition::from_degrees(41.1784, -8.6081),
        )
        .with_dynamics(Heading::from_degrees(93.5), Speed::from_mps(1.5))
    }

    #[test]
    fn basic_cam_roundtrip() {
        let cam = sample_cam();
        let bytes = cam.to_bytes().unwrap();
        assert_eq!(Cam::from_bytes(&bytes).unwrap(), cam);
    }

    #[test]
    fn cam_wire_size_is_compact() {
        // A HF-only CAM should be well under 50 bytes, like real UPER CAMs.
        let bytes = sample_cam().to_bytes().unwrap();
        assert!(bytes.len() < 50, "CAM encoded to {} bytes", bytes.len());
        assert!(bytes.len() > 10);
    }

    #[test]
    fn cam_with_low_frequency_roundtrip() {
        let lf = LowFrequencyContainer {
            vehicle_role: VehicleRole::Default,
            exterior_lights: 0b1000_0001,
            path_history: PathHistory::new(vec![PathPoint::default(); 5]).unwrap(),
        };
        let cam = sample_cam().with_low_frequency(lf);
        let bytes = cam.to_bytes().unwrap();
        let back = Cam::from_bytes(&bytes).unwrap();
        assert_eq!(back, cam);
        assert_eq!(
            back.low_frequency.as_ref().unwrap().exterior_lights,
            0b1000_0001
        );
    }

    #[test]
    fn hf_container_validation() {
        let hf = HighFrequencyContainer {
            vehicle_length: 0, // below minimum of 1
            ..HighFrequencyContainer::default()
        };
        assert!(hf.validate().is_err());
        let cam = Cam {
            high_frequency: hf,
            ..sample_cam()
        };
        assert!(cam.to_bytes().is_err());
    }

    #[test]
    fn generation_delta_time_is_mod_65536_of_timestamp() {
        // EN 302 637-2: generationDeltaTime = TimestampIts mod 65536.
        let ts = TimestampIts::new(70_000).unwrap();
        let gdt = (ts.millis() % 65536) as u16;
        assert_eq!(gdt, 4464);
        let cam = Cam::basic(
            StationId::new(1).unwrap(),
            gdt,
            StationType::PassengerCar,
            ReferencePosition::from_degrees(0.0, 0.0),
        );
        let back = Cam::from_bytes(&cam.to_bytes().unwrap()).unwrap();
        assert_eq!(back.generation_delta_time, 4464);
    }

    proptest! {
        #[test]
        fn cam_roundtrip_arbitrary_dynamics(
            gdt in any::<u16>(),
            heading in 0u16..=3601,
            speed in 0u16..=16383,
            len in 1u16..=1023,
            width in 1u8..=62,
            accel in -160i16..=161,
            yaw in -32766i32..=32767,
        ) {
            let mut cam = sample_cam();
            cam.generation_delta_time = gdt;
            cam.high_frequency = HighFrequencyContainer {
                heading: Heading::new(heading).unwrap(),
                speed: Speed::new(speed).unwrap(),
                drive_direction: DriveDirection::Forward,
                vehicle_length: len,
                vehicle_width: width,
                longitudinal_acceleration: accel,
                yaw_rate: yaw,
            };
            let bytes = cam.to_bytes().unwrap();
            prop_assert_eq!(Cam::from_bytes(&bytes).unwrap(), cam);
        }

        #[test]
        fn cam_roundtrip_arbitrary_position(
            station in 1u32..=4_294_967_295,
            lat in -90.0f64..90.0,
            lon in -180.0f64..180.0,
        ) {
            let cam = Cam::basic(
                StationId::new(station).unwrap(),
                0,
                StationType::PassengerCar,
                ReferencePosition::from_degrees(lat, lon),
            );
            let back = Cam::from_bytes(&cam.to_bytes().unwrap()).unwrap();
            prop_assert_eq!(back, cam);
        }

        #[test]
        fn truncated_valid_cam_errors_cleanly(cut_back in 1usize..40) {
            // Every proper prefix of a valid encoding must yield a clean
            // error — the decoder never reads past the buffer or panics.
            let bytes = sample_cam().to_bytes().unwrap();
            let cut = bytes.len().saturating_sub(cut_back);
            prop_assert!(Cam::from_bytes(&bytes[..cut]).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_cam_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..128)
        ) {
            // Robust reception: radio garbage produces Err, never a panic.
            let _ = Cam::from_bytes(&bytes);
        }
    }
}
