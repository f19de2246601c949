//! Field-level UPER encodings built on [`BitWriter`]/[`BitReader`].
//!
//! This module implements the subset of ITU-T X.691 the messages of this
//! workspace use:
//!
//! * constrained whole numbers (§11.5) — fixed bit width derived from the
//!   range,
//! * enumerations, `OPTIONAL` presence bitmaps, `SEQUENCE OF`,
//! * UTF8String with a size constraint.

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

/// A positional ASN.1 `ENUMERATED` type: its wire index is the variant's
/// position in [`ALL`](Self::ALL), and the blanket [`Codec`] impl writes
/// it with [`BitWriter::write_enumerated`] over `ALL.len()` variants.
///
/// # Example
///
/// ```
/// use uper::Enumerated;
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Lane {
///     Left,
///     Right,
/// }
///
/// impl Enumerated for Lane {
///     const NAME: &'static str = "Lane";
///     const ALL: &'static [Self] = &[Lane::Left, Lane::Right];
/// }
///
/// # fn main() -> Result<(), uper::UperError> {
/// assert_eq!(Lane::Right.index(), 1);
/// assert_eq!(uper::encode(&Lane::Right)?, vec![0b1000_0000]);
/// assert_eq!(uper::decode::<Lane>(&[0b1000_0000])?, Lane::Right);
/// # Ok(())
/// # }
/// ```
pub trait Enumerated: Copy + PartialEq + 'static {
    /// Name of the enumeration, for [`UperError::InvalidEnum`].
    const NAME: &'static str;
    /// Every variant, in wire order.
    const ALL: &'static [Self];

    /// This variant's wire index: its position in [`ALL`](Self::ALL), or
    /// `ALL.len()` (which no encoder accepts) for a variant missing from
    /// the table.
    fn index(&self) -> u64 {
        let position = Self::ALL.iter().position(|v| v == self);
        position.unwrap_or(Self::ALL.len()) as u64
    }

    /// The variant at wire index `index`.
    ///
    /// # Errors
    ///
    /// [`UperError::InvalidEnum`] if `index` is not below `ALL.len()`.
    fn from_index(index: u64) -> Result<Self> {
        usize::try_from(index)
            .ok()
            .and_then(|i| Self::ALL.get(i))
            .copied()
            .ok_or(UperError::InvalidEnum {
                index,
                name: Self::NAME,
            })
    }
}

impl<T: Enumerated> Codec for T {
    fn encode(&self, w: &mut BitWriter) -> Result<()> {
        w.write_enumerated(self.index(), T::ALL.len() as u64)
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self> {
        T::from_index(r.read_enumerated(T::ALL.len() as u64)?)
    }
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
    fn enumerated_roundtrip_and_bounds() {
        let mut w = BitWriter::new();
        w.write_enumerated(3, 5).unwrap();
        assert!(w.write_enumerated(5, 5).is_err());
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_enumerated(5).unwrap(), 3);
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Signal {
        Red,
        Amber,
        Green,
        Off,
    }

    impl Enumerated for Signal {
        const NAME: &'static str = "Signal";
        // `Off` is left out: a variant missing from the table.
        const ALL: &'static [Self] = &[Signal::Red, Signal::Amber, Signal::Green];
    }

    #[test]
    fn enumerated_table_is_the_wire_index() {
        let mut w = BitWriter::new();
        for s in Signal::ALL {
            s.encode(&mut w).unwrap();
        }
        assert_eq!(w.bit_len(), 6);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0001_1000]);
        let mut r = BitReader::new(&bytes);
        for s in Signal::ALL {
            assert_eq!(Signal::decode(&mut r).unwrap(), *s);
        }
        // Index 3 fits the two bits but names no variant.
        let mut r = BitReader::new(&[0b1100_0000]);
        assert!(matches!(
            Signal::decode(&mut r),
            Err(UperError::OutOfRange { value: 3, .. })
        ));
        assert_eq!(
            Signal::from_index(3),
            Err(UperError::InvalidEnum {
                index: 3,
                name: "Signal"
            })
        );
        assert!(Signal::from_index(u64::MAX).is_err());
        // A variant missing from the table cannot be encoded.
        assert_eq!(Signal::Off.index(), 3);
        assert!(Signal::Off.encode(&mut BitWriter::new()).is_err());
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
    fn fixed_size_has_no_determinant() {
        let size = SizeRange::new(4, 4);
        let mut w = BitWriter::new();
        w.write_size(4, size).unwrap();
        assert_eq!(w.bit_len(), 0);
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_size(size).unwrap(), 4);
    }

    #[test]
    fn size_violation_rejected() {
        let size = SizeRange::new(2, 3);
        let mut w = BitWriter::new();
        assert!(w.write_size(1, size).is_err());
        assert!(w.write_size(4, size).is_err());
    }

    #[test]
    #[should_panic(expected = "size range min must not exceed max")]
    fn size_range_panics_on_inverted_bounds() {
        let _ = SizeRange::new(3, 2);
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
    }
}
