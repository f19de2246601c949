//! GeoNetworking headers and full-packet assembly.
//!
//! A packet on the air is `BasicHeader | CommonHeader | ExtendedHeader |
//! BTP-B | facilities payload`. The testbed uses two extended headers:
//! Single-Hop Broadcast (SHB) for CAMs and GeoBroadcast (GBC) for DENMs.

use crate::area::GeoArea;
use crate::btp::{BtpB, BtpPort};
use crate::bytesio::{ByteReader, ByteWriterExt};
use crate::error::GeonetError;
use crate::position::LongPositionVector;
use crate::Result;

/// GeoNetworking protocol version implemented here.
pub const GN_VERSION: u8 = 1;

/// `NextHeader` values of the basic header.
const NH_COMMON: u8 = 1;
/// `NextHeader` values of the common header.
const NH_BTP_B: u8 = 2;

/// Header-type discriminants of the common header (type · 16 + subtype).
const HT_SHB: u8 = 0x50; // TSB / single-hop
const HT_GBC_CIRCLE: u8 = 0x41;

/// Packet lifetime, encoded as multiplier + base (EN 302 636-4-1 §9.6.4).
///
/// The default of 60 s matches OpenC2X's DENM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lifetime {
    /// Remaining lifetime in units of 50 ms, `[0, 16383]` on the wire
    /// (collapsed to a flat 14-bit field here).
    pub fifty_ms_units: u16,
}

impl Lifetime {
    /// Creates a lifetime from seconds (rounded to 50 ms granularity).
    pub fn from_secs_f64(secs: f64) -> Self {
        Self {
            fifty_ms_units: ((secs / 0.05).round()).clamp(0.0, 16383.0) as u16,
        }
    }

    /// Lifetime in seconds.
    #[cfg(test)]
    pub fn as_secs_f64(&self) -> f64 {
        f64::from(self.fifty_ms_units) * 0.05
    }
}

impl Default for Lifetime {
    fn default() -> Self {
        Self::from_secs_f64(60.0)
    }
}

/// GeoNetworking traffic class: store-carry-forward flag, channel offload,
/// and DCC profile id (maps to an EDCA access category at the MAC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficClass {
    /// Store-carry-forward permitted.
    pub scf: bool,
    /// DCC profile / priority, `[0, 63]`; 0 is highest (DP0, safety).
    pub dcc_profile: u8,
}

impl TrafficClass {
    /// DP0 — highest priority, used for DENMs.
    pub fn dp0() -> Self {
        Self {
            scf: false,
            dcc_profile: 0,
        }
    }

    /// DP2 — default CAM priority.
    pub fn dp2() -> Self {
        Self {
            scf: false,
            dcc_profile: 2,
        }
    }

    fn to_byte(self) -> u8 {
        (u8::from(self.scf) << 7) | (self.dcc_profile & 0x3F)
    }

    fn from_byte(b: u8) -> Self {
        Self {
            scf: b & 0x80 != 0,
            dcc_profile: b & 0x3F,
        }
    }
}

/// The basic header: version, next header, lifetime, remaining hop limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BasicHeader {
    /// Protocol version ([`GN_VERSION`]).
    pub version: u8,
    /// Packet lifetime.
    pub lifetime: Lifetime,
    /// Remaining hop limit.
    pub remaining_hop_limit: u8,
}

impl BasicHeader {
    const WIRE_SIZE: usize = 1 + 1 + 2 + 1;

    fn write(&self, out: &mut Vec<u8>) {
        out.put_u8(self.version);
        out.put_u8(NH_COMMON);
        out.put_u16(self.lifetime.fifty_ms_units);
        out.put_u8(self.remaining_hop_limit);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.u8()?;
        if version != GN_VERSION {
            return Err(GeonetError::BadVersion(version));
        }
        let nh = r.u8()?;
        if nh != NH_COMMON {
            return Err(GeonetError::UnknownNextHeader(nh));
        }
        let lifetime = Lifetime {
            fifty_ms_units: r.u16()? & 0x3FFF,
        };
        let remaining_hop_limit = r.u8()?;
        Ok(Self {
            version,
            lifetime,
            remaining_hop_limit,
        })
    }
}

/// The common header: next header, header type, traffic class, payload
/// length and max hop limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommonHeader {
    /// Traffic class of the packet.
    pub traffic_class: TrafficClass,
    /// Payload length in bytes (BTP + facilities message).
    pub payload_length: u16,
    /// Maximum hop limit.
    pub max_hop_limit: u8,
}

impl CommonHeader {
    const WIRE_SIZE: usize = 1 + 1 + 1 + 2 + 1;

    fn write(&self, out: &mut Vec<u8>, header_type: u8) {
        out.put_u8(NH_BTP_B);
        out.put_u8(header_type);
        out.put_u8(self.traffic_class.to_byte());
        out.put_u16(self.payload_length);
        out.put_u8(self.max_hop_limit);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<(Self, u8)> {
        let nh = r.u8()?;
        if nh != NH_BTP_B {
            return Err(GeonetError::UnknownNextHeader(nh));
        }
        let header_type = r.u8()?;
        let traffic_class = TrafficClass::from_byte(r.u8()?);
        let payload_length = r.u16()?;
        let max_hop_limit = r.u8()?;
        Ok((
            Self {
                traffic_class,
                payload_length,
                max_hop_limit,
            },
            header_type,
        ))
    }
}

/// Single-Hop Broadcast extended header: just the sender's position vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleHopBroadcast {
    /// Source position vector.
    pub source: LongPositionVector,
}

/// GeoBroadcast extended header: sequence number, source position vector
/// and destination area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBroadcast {
    /// Sequence number for duplicate detection.
    pub sequence_number: u16,
    /// Source position vector.
    pub source: LongPositionVector,
    /// Destination area of the broadcast.
    pub area: GeoArea,
}

/// The extended header of a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtendedHeader {
    /// SHB — used for CAMs.
    SingleHop(SingleHopBroadcast),
    /// GBC — used for DENMs.
    GeoBroadcast(GeoBroadcast),
}

impl ExtendedHeader {
    /// The source position vector regardless of variant.
    pub fn source(&self) -> &LongPositionVector {
        match self {
            ExtendedHeader::SingleHop(shb) => &shb.source,
            ExtendedHeader::GeoBroadcast(gbc) => &gbc.source,
        }
    }
}

/// A complete GeoNetworking packet with BTP-B transport and payload.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone, PartialEq)]
pub struct GnPacket {
    /// Basic header.
    pub basic: BasicHeader,
    /// Common header (payload length is filled in by the constructors).
    pub common: CommonHeader,
    /// SHB or GBC extended header.
    pub extended: ExtendedHeader,
    /// BTP-B transport header.
    pub btp: BtpB,
    /// Facilities-layer payload (UPER-encoded CAM or DENM).
    ///
    /// Shared, immutable bytes: forwarding and per-hop delivery clone
    /// the `Arc`, not the payload, so a message is encoded exactly once
    /// however many hops or receivers it traverses.
    pub payload: std::sync::Arc<[u8]>,
}

impl GnPacket {
    /// Builds a single-hop broadcast packet (CAM transport): the owned
    /// counterpart of [`GnFrame::single_hop`], for tests that need a
    /// packet.
    #[cfg(test)]
    pub fn single_hop(
        source: LongPositionVector,
        traffic_class: TrafficClass,
        port: BtpPort,
        payload: impl AsRef<[u8]>,
    ) -> Self {
        GnFrame::single_hop(source, traffic_class, port, payload.as_ref()).to_packet()
    }

    /// Builds a geo-broadcast packet (DENM transport).
    pub fn geo_broadcast(
        source: LongPositionVector,
        sequence_number: u16,
        area: GeoArea,
        traffic_class: TrafficClass,
        port: BtpPort,
        payload: impl Into<std::sync::Arc<[u8]>>,
    ) -> Self {
        let payload = payload.into();
        Self {
            basic: BasicHeader {
                version: GN_VERSION,
                lifetime: Lifetime::default(),
                remaining_hop_limit: 10,
            },
            common: CommonHeader {
                traffic_class,
                payload_length: (payload.len() + BtpB::WIRE_SIZE) as u16,
                max_hop_limit: 10,
            },
            extended: ExtendedHeader::GeoBroadcast(GeoBroadcast {
                sequence_number,
                source,
                area,
            }),
            btp: BtpB::new(port),
            payload,
        }
    }

    /// Total wire size of this packet in bytes.
    pub fn wire_size(&self) -> usize {
        self.as_frame().wire_size()
    }

    /// Serialises the packet to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.as_frame().write_to(&mut out);
        out
    }

    /// Parses a packet from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, bad version, unknown header type,
    /// or a payload length that disagrees with the buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(GnFrame::parse(bytes)?.to_packet())
    }

    /// This packet viewed as a borrowed [`GnFrame`].
    pub fn as_frame(&self) -> GnFrame<'_> {
        GnFrame {
            basic: self.basic,
            common: self.common,
            extended: self.extended,
            btp: self.btp,
            payload: &self.payload,
        }
    }

    /// Whether a receiver at the given position (degrees) is addressed by
    /// this packet: always for SHB, area membership for GBC.
    #[cfg(test)]
    pub fn addresses_position(&self, lat_deg: f64, lon_deg: f64) -> bool {
        self.as_frame().addresses_position(lat_deg, lon_deg)
    }
}

/// A GeoNetworking frame whose payload is borrowed wire bytes — the
/// allocation-free counterpart of [`GnPacket`].
///
/// The owned packet exists so a message outlives the buffer it arrived
/// in (repetition queues, LDM storage); the hot TX/RX paths never need
/// that, so they parse and serialise frames against caller-owned
/// buffers instead and allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnFrame<'a> {
    /// Basic header.
    pub basic: BasicHeader,
    /// Common header.
    pub common: CommonHeader,
    /// SHB or GBC extended header.
    pub extended: ExtendedHeader,
    /// BTP-B transport header.
    pub btp: BtpB,
    /// Facilities-layer payload (UPER-encoded CAM or DENM).
    pub payload: &'a [u8],
}

impl<'a> GnFrame<'a> {
    /// Builds a single-hop broadcast frame (CAM transport) over a
    /// borrowed payload: lifetime 1 s, hop limit 1.
    pub fn single_hop(
        source: LongPositionVector,
        traffic_class: TrafficClass,
        port: BtpPort,
        payload: &'a [u8],
    ) -> Self {
        Self {
            basic: BasicHeader {
                version: GN_VERSION,
                lifetime: Lifetime::from_secs_f64(1.0),
                remaining_hop_limit: 1,
            },
            common: CommonHeader {
                traffic_class,
                payload_length: (payload.len() + BtpB::WIRE_SIZE) as u16,
                max_hop_limit: 1,
            },
            extended: ExtendedHeader::SingleHop(SingleHopBroadcast { source }),
            btp: BtpB::new(port),
            payload,
        }
    }

    /// Total wire size of this frame in bytes.
    pub fn wire_size(&self) -> usize {
        let ext = match self.extended {
            ExtendedHeader::SingleHop(_) => LongPositionVector::WIRE_SIZE,
            ExtendedHeader::GeoBroadcast(_) => {
                2 + LongPositionVector::WIRE_SIZE + GeoArea::WIRE_SIZE
            }
        };
        BasicHeader::WIRE_SIZE
            + CommonHeader::WIRE_SIZE
            + ext
            + BtpB::WIRE_SIZE
            + self.payload.len()
    }

    /// Appends the frame's wire bytes to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_size());
        self.basic.write(out);
        let header_type = match self.extended {
            ExtendedHeader::SingleHop(_) => HT_SHB,
            ExtendedHeader::GeoBroadcast(_) => HT_GBC_CIRCLE,
        };
        self.common.write(out, header_type);
        match &self.extended {
            ExtendedHeader::SingleHop(shb) => shb.source.write(out),
            ExtendedHeader::GeoBroadcast(gbc) => {
                out.put_u16(gbc.sequence_number);
                gbc.source.write(out);
                gbc.area.write(out);
            }
        }
        self.btp.write(out);
        out.extend_from_slice(self.payload);
    }

    /// Parses a frame from wire bytes, borrowing the payload.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, bad version, unknown header type,
    /// or a payload length that disagrees with the buffer.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let basic = BasicHeader::read(&mut r)?;
        let (common, header_type) = CommonHeader::read(&mut r)?;
        let extended = match header_type {
            HT_SHB => ExtendedHeader::SingleHop(SingleHopBroadcast {
                source: LongPositionVector::read(&mut r)?,
            }),
            HT_GBC_CIRCLE => {
                let sequence_number = r.u16()?;
                let source = LongPositionVector::read(&mut r)?;
                let area = GeoArea::read(&mut r)?;
                ExtendedHeader::GeoBroadcast(GeoBroadcast {
                    sequence_number,
                    source,
                    area,
                })
            }
            other => return Err(GeonetError::UnknownHeaderType(other)),
        };
        let btp = BtpB::read(&mut r)?;
        let payload = r.rest();
        let declared = common.payload_length as usize;
        let actual = payload.len() + BtpB::WIRE_SIZE;
        if declared != actual {
            return Err(GeonetError::PayloadLengthMismatch { declared, actual });
        }
        Ok(Self {
            basic,
            common,
            extended,
            btp,
            payload,
        })
    }

    /// Copies this frame into an owned [`GnPacket`] (allocates the
    /// payload `Arc`).
    pub fn to_packet(&self) -> GnPacket {
        GnPacket {
            basic: self.basic,
            common: self.common,
            extended: self.extended,
            btp: self.btp,
            payload: std::sync::Arc::from(self.payload),
        }
    }

    /// Whether a receiver at the given position (degrees) is addressed by
    /// this frame: always for SHB, area membership for GBC.
    pub fn addresses_position(&self, lat_deg: f64, lon_deg: f64) -> bool {
        match &self.extended {
            ExtendedHeader::SingleHop(_) => true,
            ExtendedHeader::GeoBroadcast(gbc) => gbc.area.contains(lat_deg, lon_deg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::GnAddress;
    use proptest::prelude::*;

    fn pv() -> LongPositionVector {
        LongPositionVector::new(GnAddress::new(0xBEEF), 1000, 41.178, -8.608, 1.5, 90.0)
    }

    #[test]
    fn shb_roundtrip() {
        let p = GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, vec![1, 2, 3]);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.wire_size());
        let back = GnPacket::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.btp.destination_port, BtpPort::CAM);
        assert!(back.addresses_position(0.0, 0.0), "SHB addresses everyone");
    }

    #[test]
    fn gbc_roundtrip_and_area_addressing() {
        let area = GeoArea::circle(41.178, -8.608, 100.0);
        let p = GnPacket::geo_broadcast(
            pv(),
            7,
            area,
            TrafficClass::dp0(),
            BtpPort::DENM,
            vec![0xAB; 30],
        );
        let bytes = p.to_bytes();
        let back = GnPacket::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        assert!(back.addresses_position(41.178, -8.608));
        assert!(!back.addresses_position(41.2, -8.608), "outside the circle");
    }

    #[test]
    fn denm_priority_is_dp0() {
        let p = GnPacket::geo_broadcast(
            pv(),
            1,
            GeoArea::circle(0.0, 0.0, 10.0),
            TrafficClass::dp0(),
            BtpPort::DENM,
            vec![],
        );
        assert_eq!(p.common.traffic_class.dcc_profile, 0);
    }

    #[test]
    fn wire_size_matches_paper_scale() {
        // A GBC DENM with a ~30-byte payload should be on the order of
        // 100 bytes on the air, consistent with short 802.11p frames.
        let p = GnPacket::geo_broadcast(
            pv(),
            1,
            GeoArea::circle(41.178, -8.608, 100.0),
            TrafficClass::dp0(),
            BtpPort::DENM,
            vec![0u8; 30],
        );
        let size = p.to_bytes().len();
        assert!(size > 60 && size < 150, "wire size {size}");
    }

    #[test]
    fn bad_version_rejected() {
        let p = GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, vec![]);
        let mut bytes = p.to_bytes();
        bytes[0] = 9;
        assert!(matches!(
            GnPacket::from_bytes(&bytes),
            Err(GeonetError::BadVersion(9))
        ));
    }

    #[test]
    fn payload_length_mismatch_rejected() {
        let p = GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, vec![1, 2, 3]);
        let mut bytes = p.to_bytes();
        bytes.pop(); // drop one payload byte
        assert!(matches!(
            GnPacket::from_bytes(&bytes),
            Err(GeonetError::PayloadLengthMismatch { .. })
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let p = GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, vec![]);
        let bytes = p.to_bytes();
        for cut in [0, 3, 8, 12] {
            assert!(GnPacket::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lifetime_encoding() {
        let lt = Lifetime::from_secs_f64(60.0);
        assert_eq!(lt.fifty_ms_units, 1200);
        assert_eq!(lt.as_secs_f64(), 60.0);
        // Saturates at the 14-bit cap.
        assert_eq!(Lifetime::from_secs_f64(10_000.0).fifty_ms_units, 16383);
    }

    #[test]
    fn traffic_class_byte_roundtrip() {
        for tc in [
            TrafficClass::dp0(),
            TrafficClass::dp2(),
            TrafficClass {
                scf: true,
                dcc_profile: 63,
            },
        ] {
            assert_eq!(TrafficClass::from_byte(tc.to_byte()), tc);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
            let _ = GnPacket::from_bytes(&bytes);
        }

        #[test]
        fn packet_roundtrip_arbitrary_payload(
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            seq in any::<u16>(),
            gbc in any::<bool>(),
        ) {
            let p = if gbc {
                GnPacket::geo_broadcast(
                    pv(), seq, GeoArea::circle(41.0, -8.0, 50.0),
                    TrafficClass::dp0(), BtpPort::DENM, payload)
            } else {
                GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, payload)
            };
            let bytes = p.to_bytes();
            prop_assert_eq!(GnPacket::from_bytes(&bytes).unwrap(), p);
        }

        #[test]
        fn roundtrip_arbitrary_port_and_traffic_class(
            port in any::<u16>(),
            info in any::<u16>(),
            scf in any::<bool>(),
            dp in 0u8..=63,
            hops in any::<u8>(),
            lifetime_units in 0u16..=16383,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            // Beyond the CAM/DENM well-known ports: any 16-bit BTP port,
            // port info, DCC profile, hop limit, and lifetime survive the
            // wire intact.
            let mut p = GnPacket::single_hop(
                pv(),
                TrafficClass { scf, dcc_profile: dp },
                BtpPort(port),
                payload,
            );
            p.btp.destination_port_info = info;
            p.basic.remaining_hop_limit = hops;
            p.basic.lifetime = Lifetime { fifty_ms_units: lifetime_units };
            let back = GnPacket::from_bytes(&p.to_bytes()).unwrap();
            prop_assert_eq!(back, p);
        }

        #[test]
        fn wire_size_always_matches_encoding(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            gbc in any::<bool>(),
        ) {
            let p = if gbc {
                GnPacket::geo_broadcast(
                    pv(), 9, GeoArea::circle(41.0, -8.0, 50.0),
                    TrafficClass::dp0(), BtpPort::DENM, payload)
            } else {
                GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, payload)
            };
            prop_assert_eq!(p.wire_size(), p.to_bytes().len());
        }

        #[test]
        fn every_proper_prefix_errors_cleanly(
            payload in proptest::collection::vec(any::<u8>(), 0..48),
            gbc in any::<bool>(),
        ) {
            // The payload-length field makes any truncation detectable:
            // every proper prefix of a valid packet decodes to Err, so a
            // clipped frame can never masquerade as a shorter valid one.
            let p = if gbc {
                GnPacket::geo_broadcast(
                    pv(), 3, GeoArea::circle(41.0, -8.0, 50.0),
                    TrafficClass::dp0(), BtpPort::DENM, payload)
            } else {
                GnPacket::single_hop(pv(), TrafficClass::dp2(), BtpPort::CAM, payload)
            };
            let bytes = p.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(GnPacket::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
            }
        }
    }
}
