//! `ItsPduHeader` — the common header at the front of every CAM and DENM
//! (Figure 2 of the paper: protocol version, message type, station ID).

use crate::common::StationId;
use uper::{BitReader, BitWriter, Codec, UperError};

/// Protocol version carried in every PDU header (EN 302 637 family v1.x).
pub const PROTOCOL_VERSION: u8 = 1;

/// `messageID` values of the facilities messages used by the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageId {
    /// DENM — messageID 1.
    Denm = 1,
    /// CAM — messageID 2.
    Cam = 2,
    /// CPM — messageID 14 (TS 103 324 collective perception).
    Cpm = 14,
}

impl MessageId {
    /// Wire value per EN 302 637 / TS 103 324.
    pub fn code(&self) -> u8 {
        *self as u8
    }

    /// Maps a wire code to a message id.
    ///
    /// # Errors
    ///
    /// Returns [`uper::UperError::InvalidEnum`] for codes other than 1,
    /// 2 or 14.
    pub fn from_code(code: u8) -> uper::Result<Self> {
        match code {
            1 => Ok(MessageId::Denm),
            2 => Ok(MessageId::Cam),
            14 => Ok(MessageId::Cpm),
            other => Err(UperError::InvalidEnum {
                index: u64::from(other),
                name: "MessageId",
            }),
        }
    }
}

/// The common ITS PDU header.
///
/// # Example
///
/// ```
/// use its_messages::{ItsPduHeader, MessageId};
/// use its_messages::common::StationId;
///
/// # fn main() -> Result<(), uper::UperError> {
/// let h = ItsPduHeader::new(MessageId::Denm, StationId::new(7)?);
/// let bytes = uper::encode(&h)?;
/// let back: ItsPduHeader = uper::decode(&bytes)?;
/// assert_eq!(h, back);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItsPduHeader {
    /// Protocol version (always [`PROTOCOL_VERSION`] when built here).
    pub protocol_version: u8,
    /// Which facilities message follows.
    pub message_id: MessageId,
    /// Station that generated the message.
    pub station_id: StationId,
}

impl ItsPduHeader {
    /// Creates a header at the current protocol version.
    pub fn new(message_id: MessageId, station_id: StationId) -> Self {
        Self {
            protocol_version: PROTOCOL_VERSION,
            message_id,
            station_id,
        }
    }

    /// Reads a header that must name `expected`: each message's decoder
    /// refuses another message's bytes (a CAM read as a DENM, say) as a
    /// `messageID` outside its one-value range.
    ///
    /// # Errors
    ///
    /// The header's own decoding errors, or [`UperError::OutOfRange`]
    /// when it names another message.
    pub fn decode_expecting(r: &mut BitReader<'_>, expected: MessageId) -> uper::Result<Self> {
        let header = Self::decode(r)?;
        if header.message_id != expected {
            let code = i128::from(expected.code());
            return Err(UperError::OutOfRange {
                value: i128::from(header.message_id.code()),
                min: code,
                max: code,
            });
        }
        Ok(header)
    }
}

impl Codec for ItsPduHeader {
    fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
        w.write_constrained_u64(u64::from(self.protocol_version), 0, 255)?;
        w.write_constrained_u64(u64::from(self.message_id.code()), 0, 255)?;
        self.station_id.encode(w)
    }

    fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
        let protocol_version = r.read_constrained_u64(0, 255)? as u8;
        let message_id = MessageId::from_code(r.read_constrained_u64(0, 255)? as u8)?;
        let station_id = StationId::decode(r)?;
        Ok(Self {
            protocol_version,
            message_id,
            station_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_id_codes() {
        assert_eq!(MessageId::Denm.code(), 1);
        assert_eq!(MessageId::Cam.code(), 2);
        assert_eq!(MessageId::Cpm.code(), 14);
        assert_eq!(MessageId::from_code(1).unwrap(), MessageId::Denm);
        assert_eq!(MessageId::from_code(14).unwrap(), MessageId::Cpm);
        assert!(MessageId::from_code(3).is_err());
    }

    #[test]
    fn header_roundtrip_and_size() {
        let h = ItsPduHeader::new(MessageId::Cam, StationId::new(0xDEADBEEF).unwrap());
        let bytes = uper::encode(&h).unwrap();
        // 8 + 8 + 32 bits = 6 bytes
        assert_eq!(bytes.len(), 6);
        let back: ItsPduHeader = uper::decode(&bytes).unwrap();
        assert_eq!(h, back);
        assert_eq!(back.protocol_version, PROTOCOL_VERSION);
    }

    #[test]
    fn cam_and_denm_decoders_refuse_another_messages_header() {
        use crate::cam::Cam;
        use crate::common::{ActionId, ReferencePosition, StationType, TimestampIts};
        use crate::denm::{Denm, ManagementContainer};
        let station = StationId::new(15).unwrap();
        let at = TimestampIts::new(1_000).unwrap();
        let position = ReferencePosition::from_degrees(41.178, -8.608);
        let management = ManagementContainer::new(
            ActionId::new(station, 1),
            at,
            at,
            position,
            StationType::RoadSideUnit,
        );
        let denm = Denm::new(station, management).to_bytes().unwrap();
        let cam = Cam::basic(station, 500, StationType::PassengerCar, position)
            .to_bytes()
            .unwrap();
        // Byte 1 is the messageID: name another message there.
        let with_id = |bytes: &[u8], id: u8| {
            let mut bytes = bytes.to_vec();
            bytes[1] = id;
            assert!(uper::decode::<ItsPduHeader>(&bytes).is_ok());
            bytes
        };
        let refused = |own: u8, other: u8| {
            Some(uper::UperError::OutOfRange {
                value: other.into(),
                min: own.into(),
                max: own.into(),
            })
        };
        assert!(Denm::from_bytes(&denm).is_ok());
        assert!(Cam::from_bytes(&cam).is_ok());
        for other in [2, 14] {
            let bytes = with_id(&denm, other);
            assert_eq!(Denm::from_bytes(&bytes).err(), refused(1, other));
        }
        for other in [1, 14] {
            let bytes = with_id(&cam, other);
            assert_eq!(Cam::from_bytes(&bytes).err(), refused(2, other));
        }
    }

    #[test]
    fn header_rejects_unknown_message_id() {
        let mut w = uper::BitWriter::new();
        w.write_constrained_u64(1, 0, 255).unwrap(); // version
        w.write_constrained_u64(99, 0, 255).unwrap(); // bogus messageID
        w.write_constrained_u64(0, 0, u32::MAX as u64).unwrap();
        let bytes = w.finish();
        assert!(uper::decode::<ItsPduHeader>(&bytes).is_err());
    }
}
