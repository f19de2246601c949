//! ASN.1 UPER-style bit-level codec primitives.
//!
//! ETSI ITS messages (CAM, DENM) are specified in ASN.1 and transmitted with
//! the Unaligned Packed Encoding Rules (UPER). This crate provides the
//! bit-level encoding machinery used by the [`its-messages`] crate: a
//! [`BitWriter`]/[`BitReader`] pair plus the standard UPER field encodings
//! the messages use (constrained integers, optional-presence bitmaps,
//! enumerations, size-constrained `SEQUENCE OF` and UTF8String). A
//! positional enumeration implements [`Enumerated`], one table of its
//! variants in wire order, and gets its [`Codec`] from that table.
//!
//! The implementation follows the subset of ITU-T X.691 needed by the ETSI
//! ITS basic services; it is not a general-purpose ASN.1 compiler. Encodings
//! produced here are self-consistent (every `write_*` has a matching
//! `read_*` that round-trips) and compact — a minimal DENM encodes to a few
//! dozen bytes, matching the order of magnitude of real ITS-G5 frames.
//!
//! # Example
//!
//! ```
//! use uper::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), uper::UperError> {
//! let mut w = BitWriter::new();
//! w.write_constrained_u64(42, 0, 255)?; // one byte worth of bits
//! w.write_bool(true);
//! let bytes = w.finish();
//!
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_constrained_u64(0, 255)?, 42);
//! assert!(r.read_bool()?);
//! # Ok(())
//! # }
//! ```
//!
//! [`its-messages`]: ../its_messages/index.html

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod bits;
mod error;
mod fields;

pub use bits::{BitReader, BitWriter};
pub use error::UperError;
pub use fields::{Codec, Enumerated, SizeRange};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, UperError>;

/// Encodes a value implementing [`Codec`] into a fresh byte vector.
///
/// # Errors
///
/// Returns an error if the value violates its own ASN.1 constraints (for
/// example an out-of-range constrained integer).
///
/// # Example
///
/// ```
/// use uper::{BitReader, BitWriter, Codec, UperError};
///
/// struct Flag(bool);
/// impl Codec for Flag {
///     fn encode(&self, w: &mut BitWriter) -> uper::Result<()> {
///         w.write_bool(self.0);
///         Ok(())
///     }
///     fn decode(r: &mut BitReader<'_>) -> uper::Result<Self> {
///         Ok(Flag(r.read_bool()?))
///     }
/// }
///
/// # fn main() -> Result<(), UperError> {
/// let bytes = uper::encode(&Flag(true))?;
/// let back: Flag = uper::decode(&bytes)?;
/// assert!(back.0);
/// # Ok(())
/// # }
/// ```
pub fn encode<T: Codec>(value: &T) -> Result<Vec<u8>> {
    let mut w = BitWriter::new();
    value.encode(&mut w)?;
    Ok(w.finish())
}

/// Encodes into a caller-owned buffer, clearing it first — the
/// allocation-free form of [`encode`] for hot paths that reuse one
/// scratch buffer across messages. The buffer's capacity is kept.
///
/// # Errors
///
/// Returns an error if any field violates its constraint; the buffer is
/// left cleared in that case.
pub fn encode_into<T: Codec>(value: &T, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let mut w = BitWriter::over(std::mem::take(out));
    let result = value.encode(&mut w);
    *out = w.finish();
    if let Err(e) = result {
        out.clear();
        return Err(e);
    }
    Ok(())
}

/// Decodes a value implementing [`Codec`] from a byte slice.
///
/// Trailing padding bits (used to round the encoding up to a whole byte) are
/// ignored, mirroring UPER framing.
///
/// # Errors
///
/// Returns an error if the input is truncated or contains a field outside
/// its constrained range. See [`encode`] for a usage example.
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T> {
    let mut r = BitReader::new(bytes);
    T::decode(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: i64,
    }

    impl Codec for Pair {
        fn encode(&self, w: &mut BitWriter) -> Result<()> {
            w.write_constrained_u64(self.a, 0, 1000)?;
            w.write_constrained_i64(self.b, -50, 50)?;
            Ok(())
        }
        fn decode(r: &mut BitReader<'_>) -> Result<Self> {
            Ok(Pair {
                a: r.read_constrained_u64(0, 1000)?,
                b: r.read_constrained_i64(-50, 50)?,
            })
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Pair { a: 999, b: -49 };
        let bytes = encode(&p).unwrap();
        let back: Pair = decode(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn decode_truncated_fails() {
        let p = Pair { a: 999, b: -49 };
        let bytes = encode(&p).unwrap();
        let err = decode::<Pair>(&bytes[..bytes.len() - 1]);
        assert!(err.is_err() || bytes.len() == 1);
    }
}
