//! Field-level UPER encodings built on [`BitWriter`]/[`BitReader`].
//!
//! This module implements the subset of ITU-T X.691 used by the ETSI ITS
//! basic services:
//!
//! * constrained whole numbers (§11.5) — fixed bit width derived from the
//!   range,
//! * semi-constrained whole numbers with a length determinant (§11.7),
//! * normally-small non-negative numbers for extension markers (§11.6),
//! * length determinants up to 64K (§11.9),
//! * enumerations, `OPTIONAL` presence bitmaps, `SEQUENCE OF`,
//! * IA5String / UTF8String with size constraints.

use crate::bits::{BitReader, BitWriter};
use crate::error::UperError;
use crate::Result;

/// Inclusive size constraint for strings and `SEQUENCE OF`.
///
/// # Example
///
/// ```
/// use uper::SizeRange;
/// let sr = SizeRange::new(1, 40);
/// assert_eq!(sr.min(), 1);
/// assert_eq!(sr.max(), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl SizeRange {
    /// Creates a size range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: usize, max: usize) -> Self {
        assert!(min <= max, "size range min must not exceed max");
        Self { min, max }
    }

    /// Lower bound (inclusive).
    pub fn min(&self) -> usize {
        self.min
    }

    /// Upper bound (inclusive).
    pub fn max(&self) -> usize {
        self.max
    }

    /// Whether the range pins the size to a single value.
    pub fn is_fixed(&self) -> bool {
        self.min == self.max
    }
}

/// Number of bits needed to represent values `0..=range`.
fn bits_for_range(range: u128) -> u32 {
    if range == 0 {
        0
    } else {
        128 - range.leading_zeros()
    }
}

/// Trait for types that encode themselves with UPER.
///
/// Implemented by every CAM/DENM container in the `its-messages` crate.
/// See [`crate::encode`] for a worked example.
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    ///
    /// # Errors
    ///
    /// Implementations return an error when the value violates its ASN.1
    /// constraints.
    fn encode(&self, w: &mut BitWriter) -> Result<()>;

    /// Reads a value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Implementations return an error on truncated input or constraint
    /// violations.
    fn decode(r: &mut BitReader<'_>) -> Result<Self>;
}

impl BitWriter {
    /// Writes a constrained whole number in `[min, max]` (X.691 §11.5).
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if `value` is outside the range, or
    /// [`UperError::BadConstraint`] if `min > max`.
    pub fn write_constrained_u64(&mut self, value: u64, min: u64, max: u64) -> Result<()> {
        if min > max {
            return Err(UperError::BadConstraint {
                min: min as i128,
                max: max as i128,
            });
        }
        if value < min || value > max {
            return Err(UperError::OutOfRange {
                value: value as i128,
                min: min as i128,
                max: max as i128,
            });
        }
        let bits = bits_for_range((max - min) as u128);
        self.write_bits(value - min, bits);
        Ok(())
    }

    /// Writes a constrained signed whole number in `[min, max]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitWriter::write_constrained_u64`].
    pub fn write_constrained_i64(&mut self, value: i64, min: i64, max: i64) -> Result<()> {
        if min > max {
            return Err(UperError::BadConstraint {
                min: min as i128,
                max: max as i128,
            });
        }
        if value < min || value > max {
            return Err(UperError::OutOfRange {
                value: value as i128,
                min: min as i128,
                max: max as i128,
            });
        }
        let range = (max as i128 - min as i128) as u128;
        let bits = bits_for_range(range);
        self.write_bits((value as i128 - min as i128) as u64, bits);
        Ok(())
    }

    /// Writes a general length determinant (X.691 §11.9, values < 64K).
    ///
    /// # Errors
    ///
    /// [`UperError::LengthTooLarge`] if `len >= 65536`.
    #[cfg(test)]
    pub fn write_length(&mut self, len: usize) -> Result<()> {
        if len < 128 {
            // single byte, top bit 0
            self.write_bits(len as u64, 8);
            Ok(())
        } else if len < 16384 {
            // two bytes, top bits 10
            self.write_bits(0b10, 2);
            self.write_bits(len as u64, 14);
            Ok(())
        } else if len < 65536 {
            // We do not implement fragmentation; encode as 11 + 16-bit raw.
            // Real UPER would fragment here, but ITS messages never reach
            // this size on the 802.11p MTU.
            self.write_bits(0b11, 2);
            self.write_bits(len as u64, 16);
            Ok(())
        } else {
            Err(UperError::LengthTooLarge(len))
        }
    }

    /// Writes a semi-constrained whole number `value >= min` (X.691 §11.7).
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if `value < min`.
    #[cfg(test)]
    pub fn write_semi_constrained_u64(&mut self, value: u64, min: u64) -> Result<()> {
        if value < min {
            return Err(UperError::OutOfRange {
                value: value as i128,
                min: min as i128,
                max: i128::MAX,
            });
        }
        let offset = value - min;
        let byte_len = if offset == 0 {
            1
        } else {
            ((64 - offset.leading_zeros()) as usize).div_ceil(8)
        };
        self.write_length(byte_len)?;
        for i in (0..byte_len).rev() {
            self.write_bits((offset >> (i * 8)) & 0xFF, 8);
        }
        Ok(())
    }

    /// Writes an enumerated value with `variants` total variants.
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if `index >= variants`.
    pub fn write_enumerated(&mut self, index: u64, variants: u64) -> Result<()> {
        if variants == 0 || index >= variants {
            return Err(UperError::OutOfRange {
                value: index as i128,
                min: 0,
                max: variants.saturating_sub(1) as i128,
            });
        }
        self.write_constrained_u64(index, 0, variants - 1)
    }

    /// Writes a size-constrained octet string.
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if the length violates `size`.
    #[cfg(test)]
    pub fn write_octet_string(&mut self, bytes: &[u8], size: SizeRange) -> Result<()> {
        self.write_size(bytes.len(), size)?;
        self.write_bytes(bytes);
        Ok(())
    }

    /// Writes an IA5String (7-bit characters) with a size constraint.
    ///
    /// # Errors
    ///
    /// [`UperError::InvalidCharacter`] for non-ASCII input,
    /// [`UperError::OutOfRange`] for a size violation.
    #[cfg(test)]
    pub fn write_ia5_string(&mut self, s: &str, size: SizeRange) -> Result<()> {
        self.write_size(s.len(), size)?;
        for c in s.chars() {
            let v = c as u32;
            if v > 0x7F {
                return Err(UperError::InvalidCharacter(v));
            }
            self.write_bits(u64::from(v), 7);
        }
        Ok(())
    }

    /// Writes a UTF8String with a size constraint on the *byte* length.
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] for a size violation.
    pub fn write_utf8_string(&mut self, s: &str, size: SizeRange) -> Result<()> {
        self.write_size(s.len(), size)?;
        self.write_bytes(s.as_bytes());
        Ok(())
    }

    /// Writes the length prefix for a `SEQUENCE OF` with the given size
    /// constraint, then the caller writes each element.
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if `len` violates `size`.
    pub fn write_size(&mut self, len: usize, size: SizeRange) -> Result<()> {
        if len < size.min() || len > size.max() {
            return Err(UperError::OutOfRange {
                value: len as i128,
                min: size.min() as i128,
                max: size.max() as i128,
            });
        }
        if size.is_fixed() {
            return Ok(()); // fixed size: no determinant on the wire
        }
        self.write_constrained_u64(len as u64, size.min() as u64, size.max() as u64)
    }
}

impl BitWriter {
    /// Writes a fixed-size BIT STRING (e.g. `ExteriorLights ::= BIT
    /// STRING (SIZE(8))`): the `count` low bits of `bits`, MSB first.
    ///
    /// # Errors
    ///
    /// [`UperError::OutOfRange`] if `bits` has set bits above `count`.
    #[cfg(test)]
    pub fn write_bit_string(&mut self, bits: u64, count: u32) -> Result<()> {
        if count < 64 && bits >> count != 0 {
            return Err(UperError::OutOfRange {
                value: bits as i128,
                min: 0,
                max: ((1u128 << count) - 1) as i128,
            });
        }
        self.write_bits(bits, count);
        Ok(())
    }

    /// Writes an ASN.1 extension marker bit (`...` in the module): `false`
    /// for the root alternatives, `true` for an extension addition.
    #[cfg(test)]
    pub fn write_extension_marker(&mut self, extended: bool) {
        self.write_bool(extended);
    }

    /// Writes a normally-small non-negative whole number (X.691 §11.6),
    /// used for extension addition indexes.
    ///
    /// # Errors
    ///
    /// [`UperError::LengthTooLarge`] for values ≥ 64 that overflow the
    /// semi-constrained fallback length determinant.
    #[cfg(test)]
    pub fn write_normally_small(&mut self, value: u64) -> Result<()> {
        if value < 64 {
            self.write_bool(false);
            self.write_bits(value, 6);
            Ok(())
        } else {
            self.write_bool(true);
            self.write_semi_constrained_u64(value, 0)
        }
    }
}

impl BitReader<'_> {
    /// Reads a fixed-size BIT STRING written by
    /// [`BitWriter::write_bit_string`].
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation.
    #[cfg(test)]
    pub fn read_bit_string(&mut self, count: u32) -> Result<u64> {
        self.read_bits(count)
    }

    /// Reads an extension marker bit.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation.
    #[cfg(test)]
    pub fn read_extension_marker(&mut self) -> Result<bool> {
        self.read_bool()
    }

    /// Reads a normally-small non-negative whole number.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation.
    #[cfg(test)]
    pub fn read_normally_small(&mut self) -> Result<u64> {
        if self.read_bool()? {
            self.read_semi_constrained_u64(0)
        } else {
            self.read_bits(6)
        }
    }
}

impl BitReader<'_> {
    /// Reads a constrained whole number in `[min, max]`.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation, [`UperError::BadConstraint`]
    /// if `min > max`.
    pub fn read_constrained_u64(&mut self, min: u64, max: u64) -> Result<u64> {
        if min > max {
            return Err(UperError::BadConstraint {
                min: min as i128,
                max: max as i128,
            });
        }
        let bits = bits_for_range((max - min) as u128);
        let raw = self.read_bits(bits)?;
        let value = min.checked_add(raw).ok_or(UperError::OutOfRange {
            value: raw as i128 + min as i128,
            min: min as i128,
            max: max as i128,
        })?;
        if value > max {
            return Err(UperError::OutOfRange {
                value: value as i128,
                min: min as i128,
                max: max as i128,
            });
        }
        Ok(value)
    }

    /// Reads a constrained signed whole number in `[min, max]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitReader::read_constrained_u64`].
    pub fn read_constrained_i64(&mut self, min: i64, max: i64) -> Result<i64> {
        if min > max {
            return Err(UperError::BadConstraint {
                min: min as i128,
                max: max as i128,
            });
        }
        let range = (max as i128 - min as i128) as u128;
        let bits = bits_for_range(range);
        let raw = self.read_bits(bits)? as i128;
        let value = min as i128 + raw;
        if value > max as i128 {
            return Err(UperError::OutOfRange {
                value,
                min: min as i128,
                max: max as i128,
            });
        }
        Ok(value as i64)
    }

    /// Reads a general length determinant written by
    /// [`BitWriter::write_length`].
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation.
    #[cfg(test)]
    pub fn read_length(&mut self) -> Result<usize> {
        let first = self.read_bits(1)?;
        if first == 0 {
            Ok(self.read_bits(7)? as usize)
        } else {
            let second = self.read_bits(1)?;
            if second == 0 {
                Ok(self.read_bits(14)? as usize)
            } else {
                Ok(self.read_bits(16)? as usize)
            }
        }
    }

    /// Reads a semi-constrained whole number with lower bound `min`.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] on truncation,
    /// [`UperError::LengthTooLarge`] if the offset does not fit in a `u64`.
    #[cfg(test)]
    pub fn read_semi_constrained_u64(&mut self, min: u64) -> Result<u64> {
        let byte_len = self.read_length()?;
        if byte_len > 8 {
            return Err(UperError::LengthTooLarge(byte_len));
        }
        let mut offset = 0u64;
        for _ in 0..byte_len {
            offset = (offset << 8) | self.read_bits(8)?;
        }
        min.checked_add(offset).ok_or(UperError::OutOfRange {
            value: offset as i128 + min as i128,
            min: min as i128,
            max: u64::MAX as i128,
        })
    }

    /// Reads an enumerated index with `variants` total variants.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] or [`UperError::OutOfRange`].
    pub fn read_enumerated(&mut self, variants: u64) -> Result<u64> {
        if variants == 0 {
            return Err(UperError::BadConstraint { min: 0, max: -1 });
        }
        self.read_constrained_u64(0, variants - 1)
    }

    /// Reads a size-constrained octet string.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] or [`UperError::OutOfRange`].
    #[cfg(test)]
    pub fn read_octet_string(&mut self, size: SizeRange) -> Result<Vec<u8>> {
        let len = self.read_size(size)?;
        self.read_bytes(len)
    }

    /// Reads an IA5String with a size constraint.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`], [`UperError::OutOfRange`], or
    /// [`UperError::InvalidCharacter`].
    #[cfg(test)]
    pub fn read_ia5_string(&mut self, size: SizeRange) -> Result<String> {
        let len = self.read_size(size)?;
        let mut s = String::with_capacity(len);
        for _ in 0..len {
            let v = self.read_bits(7)? as u32;
            let c = char::from_u32(v).ok_or(UperError::InvalidCharacter(v))?;
            s.push(c);
        }
        Ok(s)
    }

    /// Reads a UTF8String with a size constraint on the byte length.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`], [`UperError::OutOfRange`], or
    /// [`UperError::InvalidCharacter`] for malformed UTF-8.
    pub fn read_utf8_string(&mut self, size: SizeRange) -> Result<String> {
        let len = self.read_size(size)?;
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes).map_err(|e| {
            let bad = e.as_bytes().first().copied().unwrap_or(0);
            UperError::InvalidCharacter(u32::from(bad))
        })
    }

    /// Reads the size of a constrained string / `SEQUENCE OF`.
    ///
    /// # Errors
    ///
    /// [`UperError::UnexpectedEnd`] or [`UperError::OutOfRange`].
    pub fn read_size(&mut self, size: SizeRange) -> Result<usize> {
        if size.is_fixed() {
            return Ok(size.min());
        }
        Ok(self.read_constrained_u64(size.min() as u64, size.max() as u64)? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_for_range_edges() {
        assert_eq!(bits_for_range(0), 0);
        assert_eq!(bits_for_range(1), 1);
        assert_eq!(bits_for_range(2), 2);
        assert_eq!(bits_for_range(255), 8);
        assert_eq!(bits_for_range(256), 9);
    }

    #[test]
    fn fixed_range_occupies_zero_bits() {
        let mut w = BitWriter::new();
        w.write_constrained_u64(7, 7, 7).unwrap();
        assert_eq!(w.bit_len(), 0);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_constrained_u64(7, 7).unwrap(), 7);
    }

    #[test]
    fn constrained_out_of_range_rejected() {
        let mut w = BitWriter::new();
        let err = w.write_constrained_u64(11, 0, 10).unwrap_err();
        assert!(matches!(err, UperError::OutOfRange { value: 11, .. }));
    }

    #[test]
    fn bad_constraint_rejected() {
        let mut w = BitWriter::new();
        assert!(matches!(
            w.write_constrained_u64(0, 5, 1),
            Err(UperError::BadConstraint { .. })
        ));
    }

    #[test]
    fn signed_roundtrip_negative_bounds() {
        let mut w = BitWriter::new();
        w.write_constrained_i64(-900000000, -900000000, 900000001)
            .unwrap();
        w.write_constrained_i64(900000001, -900000000, 900000001)
            .unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            r.read_constrained_i64(-900000000, 900000001).unwrap(),
            -900000000
        );
        assert_eq!(
            r.read_constrained_i64(-900000000, 900000001).unwrap(),
            900000001
        );
    }

    #[test]
    fn length_determinant_bands() {
        for &len in &[0usize, 1, 127, 128, 129, 16383, 16384, 65535] {
            let mut w = BitWriter::new();
            w.write_length(len).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_length().unwrap(), len, "len {len}");
        }
    }

    #[test]
    fn length_too_large_rejected() {
        let mut w = BitWriter::new();
        assert!(matches!(
            w.write_length(65536),
            Err(UperError::LengthTooLarge(65536))
        ));
    }

    #[test]
    fn semi_constrained_roundtrip() {
        for &(v, min) in &[(0u64, 0u64), (5, 5), (300, 0), (u64::MAX, 0), (1000, 999)] {
            let mut w = BitWriter::new();
            w.write_semi_constrained_u64(v, min).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_semi_constrained_u64(min).unwrap(), v);
        }
    }

    #[test]
    fn semi_constrained_below_min_rejected() {
        let mut w = BitWriter::new();
        assert!(w.write_semi_constrained_u64(4, 5).is_err());
    }

    #[test]
    fn enumerated_roundtrip_and_bounds() {
        let mut w = BitWriter::new();
        w.write_enumerated(3, 5).unwrap();
        assert!(w.write_enumerated(5, 5).is_err());
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_enumerated(5).unwrap(), 3);
    }

    #[test]
    fn ia5_string_roundtrip() {
        let size = SizeRange::new(0, 32);
        let mut w = BitWriter::new();
        w.write_ia5_string("DENM-01", size).unwrap();
        let bytes = w.finish();
        // 7-bit chars: shorter than UTF-8 would be once length passes a byte
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_ia5_string(size).unwrap(), "DENM-01");
    }

    #[test]
    fn ia5_rejects_non_ascii() {
        let mut w = BitWriter::new();
        assert!(matches!(
            w.write_ia5_string("café", SizeRange::new(0, 32)),
            Err(UperError::InvalidCharacter(_))
        ));
    }

    #[test]
    fn utf8_string_roundtrip() {
        let size = SizeRange::new(0, 64);
        let mut w = BitWriter::new();
        w.write_utf8_string("blind-corner ⚠", size).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_utf8_string(size).unwrap(), "blind-corner ⚠");
    }

    #[test]
    fn octet_string_fixed_size_has_no_determinant() {
        let size = SizeRange::new(4, 4);
        let mut w = BitWriter::new();
        w.write_octet_string(&[1, 2, 3, 4], size).unwrap();
        assert_eq!(w.bit_len(), 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_octet_string(size).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn octet_string_size_violation() {
        let size = SizeRange::new(2, 3);
        let mut w = BitWriter::new();
        assert!(w.write_octet_string(&[1], size).is_err());
        assert!(w.write_octet_string(&[1, 2, 3, 4], size).is_err());
    }

    #[test]
    #[should_panic(expected = "size range min must not exceed max")]
    fn size_range_panics_on_inverted_bounds() {
        let _ = SizeRange::new(3, 2);
    }

    #[test]
    fn bit_string_roundtrip_and_validation() {
        let mut w = BitWriter::new();
        w.write_bit_string(0b1010_0001, 8).unwrap();
        assert!(w.write_bit_string(0b1_0000_0000, 8).is_err());
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit_string(8).unwrap(), 0b1010_0001);
    }

    #[test]
    fn bit_string_full_width() {
        let mut w = BitWriter::new();
        w.write_bit_string(u64::MAX, 64).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit_string(64).unwrap(), u64::MAX);
    }

    #[test]
    fn extension_marker_roundtrip() {
        let mut w = BitWriter::new();
        w.write_extension_marker(false);
        w.write_extension_marker(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(!r.read_extension_marker().unwrap());
        assert!(r.read_extension_marker().unwrap());
    }

    #[test]
    fn normally_small_both_branches() {
        for v in [0u64, 1, 63, 64, 1000, u64::MAX] {
            let mut w = BitWriter::new();
            w.write_normally_small(v).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_normally_small().unwrap(), v, "value {v}");
        }
        // The small branch costs exactly 7 bits.
        let mut w = BitWriter::new();
        w.write_normally_small(63).unwrap();
        assert_eq!(w.bit_len(), 7);
    }

    proptest! {
        #[test]
        fn constrained_u64_roundtrip(min in 0u64..1 << 40, span in 0u64..1 << 20, off in 0u64..1 << 20) {
            let max = min + span;
            let value = min + off.min(span);
            let mut w = BitWriter::new();
            w.write_constrained_u64(value, min, max).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(r.read_constrained_u64(min, max).unwrap(), value);
        }

        #[test]
        fn constrained_i64_roundtrip(min in -(1i64 << 40)..1 << 40, span in 0i64..1 << 20, off in 0i64..1 << 20) {
            let max = min + span;
            let value = min + off.min(span);
            let mut w = BitWriter::new();
            w.write_constrained_i64(value, min, max).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(r.read_constrained_i64(min, max).unwrap(), value);
        }

        #[test]
        fn utf8_roundtrip(s in "\\PC{0,40}") {
            let size = SizeRange::new(0, 256);
            prop_assume!(s.len() <= 256);
            let mut w = BitWriter::new();
            w.write_utf8_string(&s, size).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(r.read_utf8_string(size).unwrap(), s);
        }

        #[test]
        fn octet_string_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let size = SizeRange::new(0, 64);
            let mut w = BitWriter::new();
            w.write_bits(0b1, 1); // deliberately unalign
            w.write_octet_string(&data, size).unwrap();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            r.read_bits(1).unwrap();
            prop_assert_eq!(r.read_octet_string(size).unwrap(), data);
        }
    }
}
