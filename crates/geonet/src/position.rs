//! GeoNetworking addresses and position vectors.

use crate::bytesio::{ByteReader, ByteWriterExt};
use crate::Result;

/// A GeoNetworking address (simplified to the 48-bit MID portion, carried
/// here as a `u64` with the top 16 bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GnAddress(u64);

impl GnAddress {
    /// Creates an address from the lower 48 bits of `mid`.
    pub fn new(mid: u64) -> Self {
        Self(mid & 0xFFFF_FFFF_FFFF)
    }

    /// Raw 48-bit value.
    pub fn mid(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for GnAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gn:{:012x}", self.0)
    }
}

/// Long Position Vector: address, timestamp, position and movement of the
/// packet's source (EN 302 636-4-1 §9.5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongPositionVector {
    /// Source GeoNetworking address.
    pub address: GnAddress,
    /// Timestamp of the position fix, milliseconds (mod 2^32 on the wire).
    pub timestamp_ms: u32,
    /// Latitude in 0.1 micro-degrees.
    pub latitude: i32,
    /// Longitude in 0.1 micro-degrees.
    pub longitude: i32,
    /// Speed in 0.01 m/s.
    pub speed_cm_s: u16,
    /// Heading in 0.1 degrees from North.
    pub heading_tenth_deg: u16,
}

impl LongPositionVector {
    /// Wire size in bytes.
    pub const WIRE_SIZE: usize = 8 + 4 + 4 + 4 + 2 + 2;

    /// Builds a position vector from natural units.
    pub fn new(
        address: GnAddress,
        timestamp_ms: u64,
        lat_deg: f64,
        lon_deg: f64,
        speed_mps: f64,
        heading_deg: f64,
    ) -> Self {
        Self {
            address,
            timestamp_ms: (timestamp_ms & 0xFFFF_FFFF) as u32,
            latitude: (lat_deg * 1e7).round().clamp(-9e8, 9e8) as i32,
            longitude: (lon_deg * 1e7).round().clamp(-1.8e9, 1.8e9) as i32,
            speed_cm_s: (speed_mps * 100.0).round().clamp(0.0, 65535.0) as u16,
            heading_tenth_deg: ((heading_deg.rem_euclid(360.0)) * 10.0).round() as u16 % 3600,
        }
    }

    /// Latitude in degrees.
    #[cfg(test)]
    pub fn latitude_deg(&self) -> f64 {
        f64::from(self.latitude) / 1e7
    }

    /// Longitude in degrees.
    #[cfg(test)]
    pub fn longitude_deg(&self) -> f64 {
        f64::from(self.longitude) / 1e7
    }

    /// Speed in metres per second.
    pub fn speed_mps(&self) -> f64 {
        f64::from(self.speed_cm_s) / 100.0
    }

    /// Heading in degrees from North.
    pub fn heading_deg(&self) -> f64 {
        f64::from(self.heading_tenth_deg) / 10.0
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.put_u64(self.address.mid());
        out.put_u32(self.timestamp_ms);
        out.put_i32(self.latitude);
        out.put_i32(self.longitude);
        out.put_u16(self.speed_cm_s);
        out.put_u16(self.heading_tenth_deg);
    }

    pub(crate) fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            address: GnAddress::new(r.u64()?),
            timestamp_ms: r.u32()?,
            latitude: r.i32()?,
            longitude: r.i32()?,
            speed_cm_s: r.u16()?,
            heading_tenth_deg: r.u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_masks_to_48_bits() {
        let a = GnAddress::new(u64::MAX);
        assert_eq!(a.mid(), 0xFFFF_FFFF_FFFF);
        assert_eq!(a.to_string(), "gn:ffffffffffff");
    }

    #[test]
    fn position_vector_units() {
        let pv = LongPositionVector::new(GnAddress::new(1), 1000, 41.178, -8.608, 1.5, 93.0);
        assert!((pv.latitude_deg() - 41.178).abs() < 1e-6);
        assert!((pv.longitude_deg() + 8.608).abs() < 1e-6);
        assert_eq!(pv.speed_mps(), 1.5);
        assert_eq!(pv.heading_deg(), 93.0);
    }

    #[test]
    fn heading_wraps_into_range() {
        let pv = LongPositionVector::new(GnAddress::new(1), 0, 0.0, 0.0, 0.0, 725.0);
        assert!((pv.heading_deg() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timestamp_wraps_mod_2_32() {
        let pv = LongPositionVector::new(GnAddress::new(1), (1u64 << 32) + 7, 0.0, 0.0, 0.0, 0.0);
        assert_eq!(pv.timestamp_ms, 7);
    }

    #[test]
    fn wire_roundtrip_and_size() {
        let pv = LongPositionVector::new(GnAddress::new(0xABCDEF), 123456, 41.1, -8.6, 2.5, 180.0);
        let mut out = Vec::new();
        pv.write(&mut out);
        assert_eq!(out.len(), LongPositionVector::WIRE_SIZE);
        let mut r = ByteReader::new(&out);
        assert_eq!(LongPositionVector::read(&mut r).unwrap(), pv);
    }

    proptest! {
        #[test]
        fn pv_roundtrip(mid in any::<u64>(), ts in any::<u32>(),
                        lat in -90.0f64..90.0, lon in -180.0f64..180.0,
                        speed in 0.0f64..600.0, heading in 0.0f64..360.0) {
            let pv = LongPositionVector::new(
                GnAddress::new(mid), u64::from(ts), lat, lon, speed, heading);
            let mut out = Vec::new();
            pv.write(&mut out);
            let mut r = ByteReader::new(&out);
            prop_assert_eq!(LongPositionVector::read(&mut r).unwrap(), pv);
        }
    }
}
