//! Common data elements from the ITS Common Data Dictionary
//! (ETSI TS 102 894-2), with their ASN.1 value ranges and physical units.
//!
//! Each element is a validated newtype: the raw wire integer is private and
//! constructors enforce the constrained range, so an encoded message can
//! never carry an out-of-range field.

use crate::enum_err;
use std::fmt;
use uper::{BitReader, BitWriter, Codec, UperError};

/// `StationID ::= INTEGER (0..4294967295)` — unique ITS station identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StationId(u32);

impl StationId {
    /// Creates a station id.
    ///
    /// # Errors
    ///
    /// Never fails for `u32` input; the `Result` keeps the constructor
    /// uniform with the other constrained elements.
    pub fn new(id: u32) -> uper::Result<Self> {
        Ok(Self(id))
    }

    /// Raw identifier value.
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for StationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "station-{}", self.0)
    }
}

impl Codec for StationId {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.0), 0, u32::MAX as u64)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_u64(0, u32::MAX as u64)? as u32))
    }
}

/// `StationType ::= INTEGER (0..255)` — the kind of ITS station.
///
/// Only the values used by the testbed are named; any other value decodes
/// to [`StationType::Unknown`] carrying the raw code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationType {
    /// Type information not available (code 0).
    Unavailable,
    /// Pedestrian (code 1).
    Pedestrian,
    /// Cyclist (code 2).
    Cyclist,
    /// Moped (code 3).
    Moped,
    /// Motorcycle (code 4) — how YOLO mislabelled the bare scale vehicle.
    Motorcycle,
    /// Passenger car (code 5) — the scale vehicle's intended class.
    PassengerCar,
    /// Bus (code 6).
    Bus,
    /// Light truck (code 7).
    LightTruck,
    /// Heavy truck (code 8) — YOLO's other mislabel with the body shell.
    HeavyTruck,
    /// Trailer (code 9).
    Trailer,
    /// Special vehicle (code 10).
    SpecialVehicle,
    /// Tram (code 11).
    Tram,
    /// Road-side unit (code 15).
    RoadSideUnit,
    /// Any other code.
    Unknown(u8),
}

impl StationType {
    /// Wire code of this station type.
    pub fn code(&self) -> u8 {
        match self {
            StationType::Unavailable => 0,
            StationType::Pedestrian => 1,
            StationType::Cyclist => 2,
            StationType::Moped => 3,
            StationType::Motorcycle => 4,
            StationType::PassengerCar => 5,
            StationType::Bus => 6,
            StationType::LightTruck => 7,
            StationType::HeavyTruck => 8,
            StationType::Trailer => 9,
            StationType::SpecialVehicle => 10,
            StationType::Tram => 11,
            StationType::RoadSideUnit => 15,
            StationType::Unknown(code) => *code,
        }
    }

    /// Maps a wire code back to a station type.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => StationType::Unavailable,
            1 => StationType::Pedestrian,
            2 => StationType::Cyclist,
            3 => StationType::Moped,
            4 => StationType::Motorcycle,
            5 => StationType::PassengerCar,
            6 => StationType::Bus,
            7 => StationType::LightTruck,
            8 => StationType::HeavyTruck,
            9 => StationType::Trailer,
            10 => StationType::SpecialVehicle,
            11 => StationType::Tram,
            15 => StationType::RoadSideUnit,
            other => StationType::Unknown(other),
        }
    }
}

impl Codec for StationType {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.code()), 0, 255)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self::from_code(r.read_constrained_u64(0, 255)? as u8))
    }
}

/// `TimestampIts ::= INTEGER (0..4398046511103)` — milliseconds since the
/// ITS epoch (2004-01-01), 42 bits on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimestampIts(u64);

/// Upper bound of [`TimestampIts`] (2^42 - 1).
pub const TIMESTAMP_ITS_MAX: u64 = (1 << 42) - 1;

/// Unix milliseconds of the ITS epoch (2004-01-01T00:00:00Z).
pub const ITS_EPOCH_UNIX_MS: u64 = 1_072_915_200_000;

impl TimestampIts {
    /// Converts Unix milliseconds to an ITS timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] for instants before the ITS
    /// epoch or beyond its 2^42 − 1 ms range (~year 2143).
    #[cfg(test)]
    pub fn from_unix_ms(unix_ms: u64) -> uper::Result<Self> {
        let its = unix_ms.checked_sub(ITS_EPOCH_UNIX_MS).ok_or({
            UperError::OutOfRange {
                value: unix_ms as i128,
                min: ITS_EPOCH_UNIX_MS as i128,
                max: (ITS_EPOCH_UNIX_MS + TIMESTAMP_ITS_MAX) as i128,
            }
        })?;
        Self::new(its)
    }

    /// This timestamp as Unix milliseconds.
    #[cfg(test)]
    pub fn as_unix_ms(&self) -> u64 {
        self.0 + ITS_EPOCH_UNIX_MS
    }

    /// Creates a timestamp from milliseconds since the ITS epoch.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] if `millis` exceeds 2^42 - 1.
    pub fn new(millis: u64) -> uper::Result<Self> {
        if millis > TIMESTAMP_ITS_MAX {
            return Err(UperError::OutOfRange {
                value: millis as i128,
                min: 0,
                max: TIMESTAMP_ITS_MAX as i128,
            });
        }
        Ok(Self(millis))
    }

    /// Milliseconds since the ITS epoch.
    pub fn millis(&self) -> u64 {
        self.0
    }

    /// Difference `self - earlier` in milliseconds (saturating at zero).
    #[cfg(test)]
    pub fn millis_since(&self, earlier: TimestampIts) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Codec for TimestampIts {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(self.0, 0, TIMESTAMP_ITS_MAX)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_u64(0, TIMESTAMP_ITS_MAX)?))
    }
}

/// `Latitude ::= INTEGER (-900000000..900000001)` in 0.1 micro-degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Latitude(i32);

impl Latitude {
    /// Wire value meaning "unavailable".
    pub const UNAVAILABLE: Latitude = Latitude(900000001);

    /// Creates a latitude from tenths of micro-degrees.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] outside `[-900000000, 900000001]`.
    pub fn new(tenth_microdeg: i32) -> uper::Result<Self> {
        if !(-900000000..=900000001).contains(&tenth_microdeg) {
            return Err(UperError::OutOfRange {
                value: tenth_microdeg as i128,
                min: -900000000,
                max: 900000001,
            });
        }
        Ok(Self(tenth_microdeg))
    }

    /// Creates a latitude from degrees, clamping to the valid range.
    pub fn from_degrees(deg: f64) -> Self {
        let raw = (deg * 1e7).round().clamp(-9e8, 9e8) as i32;
        Self(raw)
    }

    /// Latitude in degrees (`None` if unavailable).
    pub fn as_degrees(&self) -> Option<f64> {
        (*self != Self::UNAVAILABLE).then(|| f64::from(self.0) / 1e7)
    }

    /// Raw wire value.
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Codec for Latitude {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_i64(i64::from(self.0), -900000000, 900000001)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_i64(-900000000, 900000001)? as i32))
    }
}

/// `Longitude ::= INTEGER (-1800000000..1800000001)` in 0.1 micro-degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Longitude(i32);

impl Longitude {
    /// Wire value meaning "unavailable".
    pub const UNAVAILABLE: Longitude = Longitude(1800000001);

    /// Creates a longitude from tenths of micro-degrees.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] outside `[-1800000000, 1800000001]`.
    pub fn new(tenth_microdeg: i32) -> uper::Result<Self> {
        if !(-1800000000..=1800000001).contains(&tenth_microdeg) {
            return Err(UperError::OutOfRange {
                value: tenth_microdeg as i128,
                min: -1800000000,
                max: 1800000001,
            });
        }
        Ok(Self(tenth_microdeg))
    }

    /// Creates a longitude from degrees, clamping to the valid range.
    pub fn from_degrees(deg: f64) -> Self {
        let raw = (deg * 1e7).round().clamp(-1.8e9, 1.8e9) as i32;
        Self(raw)
    }

    /// Longitude in degrees (`None` if unavailable).
    pub fn as_degrees(&self) -> Option<f64> {
        (*self != Self::UNAVAILABLE).then(|| f64::from(self.0) / 1e7)
    }

    /// Raw wire value.
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Codec for Longitude {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_i64(i64::from(self.0), -1800000000, 1800000001)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_i64(-1800000000, 1800000001)? as i32))
    }
}

/// `AltitudeValue ::= INTEGER (-100000..800001)` in centimetres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Altitude(i32);

impl Altitude {
    /// Wire value meaning "unavailable".
    pub const UNAVAILABLE: Altitude = Altitude(800001);

    /// Creates an altitude from centimetres above the WGS-84 ellipsoid.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] outside `[-100000, 800001]`.
    pub fn new(cm: i32) -> uper::Result<Self> {
        if !(-100000..=800001).contains(&cm) {
            return Err(UperError::OutOfRange {
                value: cm as i128,
                min: -100000,
                max: 800001,
            });
        }
        Ok(Self(cm))
    }
}

impl Default for Altitude {
    fn default() -> Self {
        Self::UNAVAILABLE
    }
}

impl Codec for Altitude {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_i64(i64::from(self.0), -100000, 800001)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_i64(-100000, 800001)? as i32))
    }
}

/// Geographic reference position (latitude, longitude, altitude).
///
/// The confidence ellipse of the CDD is reduced to a single semi-major
/// confidence field, which is what the testbed logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReferencePosition {
    /// Latitude of the position.
    pub latitude: Latitude,
    /// Longitude of the position.
    pub longitude: Longitude,
    /// Altitude of the position.
    pub altitude: Altitude,
}

impl ReferencePosition {
    /// Builds a position from degrees with unavailable altitude.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64) -> Self {
        Self {
            latitude: Latitude::from_degrees(lat_deg),
            longitude: Longitude::from_degrees(lon_deg),
            altitude: Altitude::UNAVAILABLE,
        }
    }

    /// Great-circle-free flat-earth distance to `other` in metres.
    ///
    /// Adequate for the laboratory scale of the testbed (tens of metres);
    /// uses an equirectangular projection around the mean latitude.
    pub fn planar_distance_m(&self, other: &ReferencePosition) -> f64 {
        const EARTH_RADIUS_M: f64 = 6_371_000.0;
        let (lat1, lon1) = match (self.latitude.as_degrees(), self.longitude.as_degrees()) {
            (Some(a), Some(b)) => (a.to_radians(), b.to_radians()),
            _ => return f64::INFINITY,
        };
        let (lat2, lon2) = match (other.latitude.as_degrees(), other.longitude.as_degrees()) {
            (Some(a), Some(b)) => (a.to_radians(), b.to_radians()),
            _ => return f64::INFINITY,
        };
        let x = (lon2 - lon1) * ((lat1 + lat2) / 2.0).cos();
        let y = lat2 - lat1;
        EARTH_RADIUS_M * (x * x + y * y).sqrt()
    }
}

impl Codec for ReferencePosition {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.latitude.encode(w)?;
        self.longitude.encode(w)?;
        self.altitude.encode(w)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            latitude: Latitude::decode(r)?,
            longitude: Longitude::decode(r)?,
            altitude: Altitude::decode(r)?,
        })
    }
}

/// `HeadingValue ::= INTEGER (0..3601)` in 0.1 degrees from North.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Heading(u16);

impl Heading {
    /// Wire value meaning "unavailable".
    pub const UNAVAILABLE: Heading = Heading(3601);

    /// Creates a heading from tenths of degrees clockwise from North.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] if `tenth_deg > 3601`.
    pub fn new(tenth_deg: u16) -> uper::Result<Self> {
        if tenth_deg > 3601 {
            return Err(UperError::OutOfRange {
                value: tenth_deg as i128,
                min: 0,
                max: 3601,
            });
        }
        Ok(Self(tenth_deg))
    }

    /// Creates a heading from degrees, wrapping into `[0, 360)`.
    pub fn from_degrees(deg: f64) -> Self {
        let wrapped = deg.rem_euclid(360.0);
        Self((wrapped * 10.0).round() as u16 % 3600)
    }

    /// Heading in degrees (`None` if unavailable).
    pub fn as_degrees(&self) -> Option<f64> {
        (*self != Self::UNAVAILABLE).then(|| f64::from(self.0) / 10.0)
    }
}

impl Codec for Heading {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.0), 0, 3601)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_u64(0, 3601)? as u16))
    }
}

/// `SpeedValue ::= INTEGER (0..16383)` in centimetres per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Speed(u16);

impl Speed {
    /// Wire value meaning "unavailable".
    pub const UNAVAILABLE: Speed = Speed(16383);

    /// Creates a speed from centimetres per second.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] if `cm_per_s > 16383`.
    pub fn new(cm_per_s: u16) -> uper::Result<Self> {
        if cm_per_s > 16383 {
            return Err(UperError::OutOfRange {
                value: cm_per_s as i128,
                min: 0,
                max: 16383,
            });
        }
        Ok(Self(cm_per_s))
    }

    /// Creates a speed from metres per second, clamping to the valid range.
    pub fn from_mps(mps: f64) -> Self {
        Self((mps * 100.0).round().clamp(0.0, 16382.0) as u16)
    }

    /// Speed in metres per second (`None` if unavailable).
    pub fn as_mps(&self) -> Option<f64> {
        (*self != Self::UNAVAILABLE).then(|| f64::from(self.0) / 100.0)
    }
}

impl Codec for Speed {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.0), 0, 16383)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self(r.read_constrained_u64(0, 16383)? as u16))
    }
}

/// `ActionID ::= SEQUENCE { originatingStationID, sequenceNumber }` —
/// globally identifies a DENM event across updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId {
    /// Station that originated the event.
    pub originating_station: StationId,
    /// Sequence number, unique per originating station.
    pub sequence_number: u16,
}

impl ActionId {
    /// Creates an action id.
    pub fn new(originating_station: StationId, sequence_number: u16) -> Self {
        Self {
            originating_station,
            sequence_number,
        }
    }
}

impl std::fmt::Display for ActionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.originating_station, self.sequence_number)
    }
}

impl Codec for ActionId {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        self.originating_station.encode(w)?;
        w.write_constrained_u64(u64::from(self.sequence_number), 0, 65535)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            originating_station: StationId::decode(r)?,
            sequence_number: r.read_constrained_u64(0, 65535)? as u16,
        })
    }
}

/// `DeltaReferencePosition` — offset from a reference position, used in
/// path histories / traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DeltaReferencePosition {
    /// Delta latitude in 0.1 micro-degrees, `[-131071, 131072]`.
    pub delta_latitude: i32,
    /// Delta longitude in 0.1 micro-degrees, `[-131071, 131072]`.
    pub delta_longitude: i32,
    /// Delta altitude in centimetres, `[-12700, 12800]`.
    pub delta_altitude: i16,
}

impl DeltaReferencePosition {
    /// Creates a delta position after validating all three components.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::OutOfRange`] if any component is out of range.
    pub fn new(
        delta_latitude: i32,
        delta_longitude: i32,
        delta_altitude: i16,
    ) -> uper::Result<Self> {
        if !(-131071..=131072).contains(&delta_latitude) {
            return Err(UperError::OutOfRange {
                value: delta_latitude as i128,
                min: -131071,
                max: 131072,
            });
        }
        if !(-131071..=131072).contains(&delta_longitude) {
            return Err(UperError::OutOfRange {
                value: delta_longitude as i128,
                min: -131071,
                max: 131072,
            });
        }
        if !(-12700..=12800).contains(&delta_altitude) {
            return Err(UperError::OutOfRange {
                value: delta_altitude as i128,
                min: -12700,
                max: 12800,
            });
        }
        Ok(Self {
            delta_latitude,
            delta_longitude,
            delta_altitude,
        })
    }
}

impl Codec for DeltaReferencePosition {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_i64(i64::from(self.delta_latitude), -131071, 131072)?;
        w.write_constrained_i64(i64::from(self.delta_longitude), -131071, 131072)?;
        w.write_constrained_i64(i64::from(self.delta_altitude), -12700, 12800)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Ok(Self {
            delta_latitude: r.read_constrained_i64(-131071, 131072)? as i32,
            delta_longitude: r.read_constrained_i64(-131071, 131072)? as i32,
            delta_altitude: r.read_constrained_i64(-12700, 12800)? as i16,
        })
    }
}

/// One point of a path history / trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathPoint {
    /// Offset from the event / reference position.
    pub delta: DeltaReferencePosition,
    /// Travel time delta in 10 ms units, `[1, 65535]`, if known.
    pub delta_time: Option<u16>,
}

impl Codec for PathPoint {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_bool(self.delta_time.is_some());
        self.delta.encode(w)?;
        if let Some(dt) = self.delta_time {
            w.write_constrained_u64(u64::from(dt), 1, 65535)?;
        }
        Ok(())
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let has_dt = r.read_bool()?;
        let delta = DeltaReferencePosition::decode(r)?;
        let delta_time = if has_dt {
            Some(r.read_constrained_u64(1, 65535)? as u16)
        } else {
            None
        };
        Ok(Self { delta, delta_time })
    }
}

/// `PathHistory ::= SEQUENCE (SIZE(0..40)) OF PathPoint`.
///
/// Stored inline as a fixed-capacity array: the ASN.1 size cap is 40,
/// so the points live in the message itself and encoding or decoding a
/// path history never allocates (low-frequency CAM containers are on
/// the scenario's per-event hot path).
#[derive(Clone)]
pub struct PathHistory {
    points: [PathPoint; Self::MAX_POINTS],
    len: u8,
}

impl Default for PathHistory {
    fn default() -> Self {
        Self {
            points: [PathPoint::default(); Self::MAX_POINTS],
            len: 0,
        }
    }
}

impl fmt::Debug for PathHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathHistory")
            .field("points", &self.points())
            .finish()
    }
}

impl PartialEq for PathHistory {
    fn eq(&self, other: &Self) -> bool {
        self.points() == other.points()
    }
}

impl Eq for PathHistory {}

impl std::hash::Hash for PathHistory {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.points().hash(state);
    }
}

impl PathHistory {
    /// Maximum number of points in a path history.
    pub const MAX_POINTS: usize = 40;

    /// Creates a path history from points.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::LengthTooLarge`] if more than
    /// [`Self::MAX_POINTS`] points are supplied.
    pub fn new(points: Vec<PathPoint>) -> uper::Result<Self> {
        Self::from_points(&points)
    }

    /// Creates a path history by copying a slice of points.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::LengthTooLarge`] if more than
    /// [`Self::MAX_POINTS`] points are supplied.
    pub fn from_points(points: &[PathPoint]) -> uper::Result<Self> {
        if points.len() > Self::MAX_POINTS {
            return Err(UperError::LengthTooLarge(points.len()));
        }
        let mut h = Self::default();
        for (slot, p) in h.points.iter_mut().zip(points) {
            *slot = *p;
        }
        h.len = points.len() as u8;
        Ok(h)
    }

    /// Appends a point; returns `false` (unchanged) once full.
    pub fn push(&mut self, point: PathPoint) -> bool {
        match self.points.get_mut(usize::from(self.len)) {
            Some(slot) => {
                *slot = point;
                self.len += 1;
                true
            }
            None => false,
        }
    }

    /// The points of this history, oldest first.
    pub fn points(&self) -> &[PathPoint] {
        self.points.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Codec for PathHistory {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.len), 0, Self::MAX_POINTS as u64)?;
        for p in self.points() {
            p.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let len = r.read_constrained_u64(0, Self::MAX_POINTS as u64)? as usize;
        let mut h = Self::default();
        for slot in h.points.iter_mut().take(len) {
            *slot = PathPoint::decode(r)?;
        }
        h.len = len as u8;
        Ok(h)
    }
}

/// `RelevanceDistance` — how far from the event position the DENM is
/// relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelevanceDistance {
    /// Less than 50 m.
    LessThan50m,
    /// Less than 100 m.
    LessThan100m,
    /// Less than 200 m.
    LessThan200m,
    /// Less than 500 m.
    LessThan500m,
    /// Less than 1000 m.
    LessThan1000m,
    /// Less than 5 km.
    LessThan5km,
    /// Less than 10 km.
    LessThan10km,
    /// Over 10 km.
    Over10km,
}

impl RelevanceDistance {
    const VARIANTS: u64 = 8;

    /// Upper bound of the band in metres (`f64::INFINITY` for the last).
    #[cfg(test)]
    pub fn upper_bound_m(&self) -> f64 {
        match self {
            RelevanceDistance::LessThan50m => 50.0,
            RelevanceDistance::LessThan100m => 100.0,
            RelevanceDistance::LessThan200m => 200.0,
            RelevanceDistance::LessThan500m => 500.0,
            RelevanceDistance::LessThan1000m => 1000.0,
            RelevanceDistance::LessThan5km => 5000.0,
            RelevanceDistance::LessThan10km => 10000.0,
            RelevanceDistance::Over10km => f64::INFINITY,
        }
    }

    fn index(&self) -> u64 {
        match self {
            RelevanceDistance::LessThan50m => 0,
            RelevanceDistance::LessThan100m => 1,
            RelevanceDistance::LessThan200m => 2,
            RelevanceDistance::LessThan500m => 3,
            RelevanceDistance::LessThan1000m => 4,
            RelevanceDistance::LessThan5km => 5,
            RelevanceDistance::LessThan10km => 6,
            RelevanceDistance::Over10km => 7,
        }
    }

    fn from_index(i: u64) -> uper::Result<Self> {
        Ok(match i {
            0 => RelevanceDistance::LessThan50m,
            1 => RelevanceDistance::LessThan100m,
            2 => RelevanceDistance::LessThan200m,
            3 => RelevanceDistance::LessThan500m,
            4 => RelevanceDistance::LessThan1000m,
            5 => RelevanceDistance::LessThan5km,
            6 => RelevanceDistance::LessThan10km,
            7 => RelevanceDistance::Over10km,
            other => return Err(enum_err(other, "RelevanceDistance")),
        })
    }
}

impl Codec for RelevanceDistance {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_enumerated(self.index(), Self::VARIANTS)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Self::from_index(r.read_enumerated(Self::VARIANTS)?)
    }
}

/// `RelevanceTrafficDirection` — which traffic direction the DENM targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelevanceTrafficDirection {
    /// All traffic directions.
    AllTrafficDirections,
    /// Upstream traffic only.
    UpstreamTraffic,
    /// Downstream traffic only.
    DownstreamTraffic,
    /// Opposite-direction traffic only.
    OppositeTraffic,
}

impl RelevanceTrafficDirection {
    const VARIANTS: u64 = 4;

    fn index(&self) -> u64 {
        match self {
            RelevanceTrafficDirection::AllTrafficDirections => 0,
            RelevanceTrafficDirection::UpstreamTraffic => 1,
            RelevanceTrafficDirection::DownstreamTraffic => 2,
            RelevanceTrafficDirection::OppositeTraffic => 3,
        }
    }

    fn from_index(i: u64) -> uper::Result<Self> {
        Ok(match i {
            0 => RelevanceTrafficDirection::AllTrafficDirections,
            1 => RelevanceTrafficDirection::UpstreamTraffic,
            2 => RelevanceTrafficDirection::DownstreamTraffic,
            3 => RelevanceTrafficDirection::OppositeTraffic,
            other => return Err(enum_err(other, "RelevanceTrafficDirection")),
        })
    }
}

impl Codec for RelevanceTrafficDirection {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_enumerated(self.index(), Self::VARIANTS)
    }
    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        Self::from_index(r.read_enumerated(Self::VARIANTS)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let bytes = uper::encode(value).unwrap();
        uper::decode(&bytes).unwrap()
    }

    #[test]
    fn station_id_roundtrip() {
        for id in [0, 1, 42, u32::MAX] {
            let s = StationId::new(id).unwrap();
            assert_eq!(roundtrip(&s), s);
            assert_eq!(s.value(), id);
        }
    }

    #[test]
    fn station_type_codes_match_cdd() {
        assert_eq!(StationType::PassengerCar.code(), 5);
        assert_eq!(StationType::RoadSideUnit.code(), 15);
        assert_eq!(StationType::Motorcycle.code(), 4);
        assert_eq!(StationType::from_code(15), StationType::RoadSideUnit);
        assert_eq!(StationType::from_code(200), StationType::Unknown(200));
        // Unknown round-trips through the wire code.
        assert_eq!(roundtrip(&StationType::Unknown(200)).code(), 200);
    }

    #[test]
    fn timestamp_bounds() {
        assert!(TimestampIts::new(TIMESTAMP_ITS_MAX).is_ok());
        assert!(TimestampIts::new(TIMESTAMP_ITS_MAX + 1).is_err());
        let a = TimestampIts::new(100).unwrap();
        let b = TimestampIts::new(350).unwrap();
        assert_eq!(b.millis_since(a), 250);
        assert_eq!(a.millis_since(b), 0); // saturates
    }

    #[test]
    fn timestamp_unix_conversion() {
        // 2023-06-27 (the paper's conference week) in Unix ms.
        let unix = 1_687_824_000_000u64;
        let ts = TimestampIts::from_unix_ms(unix).unwrap();
        assert_eq!(ts.as_unix_ms(), unix);
        assert_eq!(ts.millis(), unix - ITS_EPOCH_UNIX_MS);
        // Before the ITS epoch: rejected.
        assert!(TimestampIts::from_unix_ms(ITS_EPOCH_UNIX_MS - 1).is_err());
        assert!(TimestampIts::from_unix_ms(ITS_EPOCH_UNIX_MS).is_ok());
    }

    #[test]
    fn latitude_degree_conversions() {
        let lat = Latitude::from_degrees(41.1784);
        assert!((lat.as_degrees().unwrap() - 41.1784).abs() < 1e-6);
        assert_eq!(Latitude::UNAVAILABLE.as_degrees(), None);
        assert!(Latitude::new(900000002).is_err());
        assert!(Latitude::new(-900000001).is_err());
    }

    #[test]
    fn longitude_degree_conversions() {
        let lon = Longitude::from_degrees(-8.6081);
        assert!((lon.as_degrees().unwrap() + 8.6081).abs() < 1e-6);
        assert!(Longitude::new(1800000002).is_err());
    }

    #[test]
    fn planar_distance_small_scale() {
        // Two points ~1.52 m apart (the paper's action-point distance) at
        // Porto's latitude.
        let a = ReferencePosition::from_degrees(41.178000, -8.608000);
        // 1 degree latitude ~= 111.19 km -> 1.52m ~= 1.367e-5 deg
        let b = ReferencePosition::from_degrees(41.178000 + 1.52 / 111_194.9, -8.608000);
        let d = a.planar_distance_m(&b);
        assert!((d - 1.52).abs() < 0.02, "distance {d}");
    }

    #[test]
    fn planar_distance_unavailable_is_infinite() {
        let a = ReferencePosition::from_degrees(41.0, -8.0);
        let mut b = a;
        b.latitude = Latitude::UNAVAILABLE;
        assert!(a.planar_distance_m(&b).is_infinite());
    }

    #[test]
    fn heading_wraps() {
        assert_eq!(Heading::from_degrees(370.0).as_degrees().unwrap(), 10.0);
        assert_eq!(Heading::from_degrees(-90.0).as_degrees().unwrap(), 270.0);
        assert_eq!(Heading::from_degrees(359.99).as_degrees().unwrap(), 0.0);
        assert!(Heading::new(3602).is_err());
    }

    #[test]
    fn speed_conversions() {
        let s = Speed::from_mps(1.5);
        assert_eq!(s.as_mps().unwrap(), 1.5);
        assert_eq!(Speed::UNAVAILABLE.as_mps(), None);
        // 60 km/h top speed of the Traxxas — representable.
        let top = Speed::from_mps(60.0 / 3.6);
        assert!((top.as_mps().unwrap() - 16.67).abs() < 0.01);
        assert!(Speed::new(16384).is_err());
    }

    #[test]
    fn action_id_display() {
        let a = ActionId::new(StationId::new(9).unwrap(), 3);
        assert_eq!(a.to_string(), "station-9#3");
    }

    #[test]
    fn delta_position_bounds() {
        assert!(DeltaReferencePosition::new(131073, 0, 0).is_err());
        assert!(DeltaReferencePosition::new(0, -131072, 0).is_err());
        assert!(DeltaReferencePosition::new(0, 0, 12801).is_err());
        assert!(DeltaReferencePosition::new(131072, 131072, 12800).is_ok());
    }

    #[test]
    fn path_history_size_cap() {
        let pts = vec![PathPoint::default(); 41];
        assert!(PathHistory::new(pts).is_err());
        let ok = PathHistory::new(vec![PathPoint::default(); 40]).unwrap();
        assert_eq!(ok.len(), 40);
        assert_eq!(roundtrip(&ok), ok);
    }

    #[test]
    fn relevance_distance_bands_monotone() {
        let all = [
            RelevanceDistance::LessThan50m,
            RelevanceDistance::LessThan100m,
            RelevanceDistance::LessThan200m,
            RelevanceDistance::LessThan500m,
            RelevanceDistance::LessThan1000m,
            RelevanceDistance::LessThan5km,
            RelevanceDistance::LessThan10km,
            RelevanceDistance::Over10km,
        ];
        for pair in all.windows(2) {
            assert!(pair[0].upper_bound_m() < pair[1].upper_bound_m());
            assert_eq!(roundtrip(&pair[0]), pair[0]);
        }
        assert_eq!(
            roundtrip(&RelevanceDistance::Over10km),
            RelevanceDistance::Over10km
        );
    }

    #[test]
    fn relevance_traffic_direction_roundtrip() {
        for d in [
            RelevanceTrafficDirection::AllTrafficDirections,
            RelevanceTrafficDirection::UpstreamTraffic,
            RelevanceTrafficDirection::DownstreamTraffic,
            RelevanceTrafficDirection::OppositeTraffic,
        ] {
            assert_eq!(roundtrip(&d), d);
        }
    }

    proptest! {
        #[test]
        fn reference_position_roundtrip(lat in -90.0f64..90.0, lon in -180.0f64..180.0) {
            let p = ReferencePosition::from_degrees(lat, lon);
            let bytes = uper::encode(&p).unwrap();
            let back: ReferencePosition = uper::decode(&bytes).unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn heading_speed_roundtrip(h in 0u16..=3601, s in 0u16..=16383) {
            let heading = Heading::new(h).unwrap();
            let speed = Speed::new(s).unwrap();
            let hb = uper::encode(&heading).unwrap();
            let sb = uper::encode(&speed).unwrap();
            prop_assert_eq!(uper::decode::<Heading>(&hb).unwrap(), heading);
            prop_assert_eq!(uper::decode::<Speed>(&sb).unwrap(), speed);
        }

        #[test]
        fn path_point_roundtrip(dlat in -131071i32..=131072, dlon in -131071i32..=131072,
                                dalt in -12700i16..=12800, dt in proptest::option::of(1u16..=65535)) {
            let p = PathPoint {
                delta: DeltaReferencePosition::new(dlat, dlon, dalt).unwrap(),
                delta_time: dt,
            };
            let bytes = uper::encode(&p).unwrap();
            prop_assert_eq!(uper::decode::<PathPoint>(&bytes).unwrap(), p);
        }
    }
}
