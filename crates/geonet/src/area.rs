//! Geographic destination areas (ETSI EN 302 931).
//!
//! A GeoBroadcast packet carries a destination area; receivers evaluate the
//! standard characteristic function `f(x, y)` to decide whether they are
//! inside (f ≥ 0 at the border, f > 0 strictly inside).

use crate::bytesio::{ByteReader, ByteWriterExt};
use crate::error::GeonetError;
use crate::Result;

/// Shape discriminant on the wire.
const SHAPE_CIRCLE: u8 = 0;
const SHAPE_RECTANGLE: u8 = 1;
const SHAPE_ELLIPSE: u8 = 2;

/// A geographic destination area: circle, rectangle or ellipse, described
/// by a centre (0.1 µdeg), half-axes in metres, and an azimuth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoArea {
    /// Centre latitude in 0.1 micro-degrees.
    pub latitude: i32,
    /// Centre longitude in 0.1 micro-degrees.
    pub longitude: i32,
    /// Half-length of the major axis (radius for circles), metres.
    pub distance_a_m: u16,
    /// Half-length of the minor axis (0 for circles), metres.
    pub distance_b_m: u16,
    /// Azimuth of the major axis, degrees from North, `[0, 360)`.
    pub angle_deg: u16,
    /// Shape of the area.
    pub shape: Shape,
}

/// The shape of a [`GeoArea`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Circular area: `distance_a` is the radius.
    Circle,
    /// Rectangular area: `distance_a`/`distance_b` are the half-sides.
    Rectangle,
    /// Elliptical area: `distance_a`/`distance_b` are the semi-axes.
    Ellipse,
}

impl GeoArea {
    /// Wire size in bytes.
    pub const WIRE_SIZE: usize = 4 + 4 + 2 + 2 + 2 + 1;

    /// Creates a circular area from degrees and a radius in metres.
    pub fn circle(lat_deg: f64, lon_deg: f64, radius_m: f64) -> Self {
        Self {
            latitude: (lat_deg * 1e7).round() as i32,
            longitude: (lon_deg * 1e7).round() as i32,
            distance_a_m: radius_m.round().clamp(0.0, 65535.0) as u16,
            distance_b_m: 0,
            angle_deg: 0,
            shape: Shape::Circle,
        }
    }

    /// Creates a rectangular area (half-sides `a`, `b`, rotated by
    /// `angle_deg` from North).
    #[cfg(test)]
    pub fn rectangle(lat_deg: f64, lon_deg: f64, a_m: f64, b_m: f64, angle_deg: f64) -> Self {
        Self {
            latitude: (lat_deg * 1e7).round() as i32,
            longitude: (lon_deg * 1e7).round() as i32,
            distance_a_m: a_m.round().clamp(0.0, 65535.0) as u16,
            distance_b_m: b_m.round().clamp(0.0, 65535.0) as u16,
            angle_deg: (angle_deg.rem_euclid(360.0)).round() as u16 % 360,
            shape: Shape::Rectangle,
        }
    }

    /// Creates an elliptical area (semi-axes `a`, `b`, rotated by
    /// `angle_deg` from North).
    #[cfg(test)]
    pub fn ellipse(lat_deg: f64, lon_deg: f64, a_m: f64, b_m: f64, angle_deg: f64) -> Self {
        Self {
            angle_deg: (angle_deg.rem_euclid(360.0)).round() as u16 % 360,
            shape: Shape::Ellipse,
            ..Self::rectangle(lat_deg, lon_deg, a_m, b_m, 0.0)
        }
    }

    /// The EN 302 931 characteristic function at a point given in degrees.
    ///
    /// Returns > 0 strictly inside, = 0 on the border, < 0 outside.
    pub fn characteristic(&self, lat_deg: f64, lon_deg: f64) -> f64 {
        // Project the point into a local ENU frame centred on the area.
        const EARTH_RADIUS_M: f64 = 6_371_000.0;
        let clat = f64::from(self.latitude) / 1e7;
        let clon = f64::from(self.longitude) / 1e7;
        let dx_east = (lon_deg - clon).to_radians() * clat.to_radians().cos() * EARTH_RADIUS_M;
        let dy_north = (lat_deg - clat).to_radians() * EARTH_RADIUS_M;
        // Rotate into the area's frame: x along the major axis (azimuth
        // from North), y along the minor axis.
        let az = f64::from(self.angle_deg).to_radians();
        let x = dx_east * az.sin() + dy_north * az.cos();
        let y = dx_east * az.cos() - dy_north * az.sin();
        let a = f64::from(self.distance_a_m).max(f64::MIN_POSITIVE);
        let b = match self.shape {
            Shape::Circle => a,
            _ => f64::from(self.distance_b_m).max(f64::MIN_POSITIVE),
        };
        match self.shape {
            Shape::Circle => 1.0 - (x / a).powi(2) - (y / a).powi(2),
            Shape::Rectangle => {
                let fx = 1.0 - (x / a).powi(2);
                let fy = 1.0 - (y / b).powi(2);
                fx.min(fy)
            }
            Shape::Ellipse => 1.0 - (x / a).powi(2) - (y / b).powi(2),
        }
    }

    /// Whether a point (degrees) lies inside or on the border of the area.
    pub fn contains(&self, lat_deg: f64, lon_deg: f64) -> bool {
        self.characteristic(lat_deg, lon_deg) >= 0.0
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.put_i32(self.latitude);
        out.put_i32(self.longitude);
        out.put_u16(self.distance_a_m);
        out.put_u16(self.distance_b_m);
        out.put_u16(self.angle_deg);
        out.put_u8(match self.shape {
            Shape::Circle => SHAPE_CIRCLE,
            Shape::Rectangle => SHAPE_RECTANGLE,
            Shape::Ellipse => SHAPE_ELLIPSE,
        });
    }

    pub(crate) fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let latitude = r.i32()?;
        let longitude = r.i32()?;
        let distance_a_m = r.u16()?;
        let distance_b_m = r.u16()?;
        let angle_deg = r.u16()?;
        let shape = match r.u8()? {
            SHAPE_CIRCLE => Shape::Circle,
            SHAPE_RECTANGLE => Shape::Rectangle,
            SHAPE_ELLIPSE => Shape::Ellipse,
            other => return Err(GeonetError::UnknownHeaderType(other)),
        };
        Ok(Self {
            latitude,
            longitude,
            distance_a_m,
            distance_b_m,
            angle_deg,
            shape,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LAT: f64 = 41.178;
    const LON: f64 = -8.608;
    /// Metres per degree of latitude.
    const M_PER_DEG_LAT: f64 = 111_194.9;

    fn offset_north(m: f64) -> f64 {
        LAT + m / M_PER_DEG_LAT
    }

    fn offset_east(m: f64) -> f64 {
        LON + m / (M_PER_DEG_LAT * LAT.to_radians().cos())
    }

    #[test]
    fn circle_contains_centre_and_excludes_far_points() {
        let area = GeoArea::circle(LAT, LON, 100.0);
        assert!(area.contains(LAT, LON));
        assert!(area.contains(offset_north(99.0), LON));
        assert!(!area.contains(offset_north(101.5), LON));
        assert!(area.contains(LAT, offset_east(99.0)));
        assert!(!area.contains(LAT, offset_east(101.5)));
    }

    #[test]
    fn characteristic_sign_convention() {
        let area = GeoArea::circle(LAT, LON, 50.0);
        assert!(area.characteristic(LAT, LON) > 0.0);
        let f_far = area.characteristic(offset_north(200.0), LON);
        assert!(f_far < 0.0);
    }

    #[test]
    fn rectangle_axis_aligned() {
        // Major axis (a) along North, 100 m; minor (b) East, 20 m.
        let area = GeoArea::rectangle(LAT, LON, 100.0, 20.0, 0.0);
        assert!(area.contains(offset_north(95.0), LON));
        assert!(!area.contains(offset_north(105.0), LON));
        assert!(area.contains(LAT, offset_east(18.0)));
        assert!(!area.contains(LAT, offset_east(25.0)));
    }

    #[test]
    fn rectangle_rotated_90_swaps_axes() {
        let area = GeoArea::rectangle(LAT, LON, 100.0, 20.0, 90.0);
        // Major axis now points East.
        assert!(area.contains(LAT, offset_east(95.0)));
        assert!(!area.contains(offset_north(95.0), LON));
    }

    #[test]
    fn ellipse_between_circle_and_rectangle() {
        let ellipse = GeoArea::ellipse(LAT, LON, 100.0, 20.0, 0.0);
        // Corner point at (70 north, 15 east) is inside the rectangle but
        // outside the ellipse.
        let lat = offset_north(70.0);
        let lon = offset_east(15.0);
        let rect = GeoArea::rectangle(LAT, LON, 100.0, 20.0, 0.0);
        assert!(rect.contains(lat, lon));
        assert!(!ellipse.contains(lat, lon));
        assert!(ellipse.contains(offset_north(95.0), LON));
    }

    #[test]
    fn wire_roundtrip() {
        for area in [
            GeoArea::circle(LAT, LON, 100.0),
            GeoArea::rectangle(LAT, LON, 50.0, 25.0, 45.0),
            GeoArea::ellipse(LAT, LON, 80.0, 40.0, 120.0),
        ] {
            let mut out = Vec::new();
            area.write(&mut out);
            assert_eq!(out.len(), GeoArea::WIRE_SIZE);
            let mut r = ByteReader::new(&out);
            assert_eq!(GeoArea::read(&mut r).unwrap(), area);
        }
    }

    #[test]
    fn bad_shape_byte_rejected() {
        let mut out = Vec::new();
        GeoArea::circle(LAT, LON, 10.0).write(&mut out);
        *out.last_mut().unwrap() = 9;
        let mut r = ByteReader::new(&out);
        assert!(matches!(
            GeoArea::read(&mut r),
            Err(GeonetError::UnknownHeaderType(9))
        ));
    }

    proptest! {
        #[test]
        fn circle_membership_matches_distance(radius in 1.0f64..5000.0,
                                              north in -6000.0f64..6000.0,
                                              east in -6000.0f64..6000.0) {
            let area = GeoArea::circle(LAT, LON, radius);
            let lat = offset_north(north);
            let lon = offset_east(east);
            let dist = (north * north + east * east).sqrt();
            // Leave a tolerance band for projection + quantisation error.
            if dist < radius * 0.98 {
                prop_assert!(area.contains(lat, lon));
            } else if dist > radius * 1.02 + 2.0 {
                prop_assert!(!area.contains(lat, lon));
            }
        }
    }
}
