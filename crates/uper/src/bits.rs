//! Raw bit-stream writer and reader.
//!
//! UPER is an *unaligned* encoding: fields occupy exactly as many bits as
//! their constraints require and are packed back to back with no padding
//! between them. These two types provide that substrate; the field-level
//! encodings live in [`crate::fields`].

use crate::error::UperError;
use crate::Result;

/// Append-only bit stream, most-significant bit first within each byte.
///
/// # Example
///
/// ```
/// use uper::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bool(true);
/// let bytes = w.finish();
/// assert_eq!(bytes, vec![0b1011_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of bits already used in the final byte (0..8).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer over a cleared, caller-owned buffer, so its
    /// capacity is reused instead of allocating ([`crate::encode_into`]).
    pub fn over(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        Self { bytes, used: 0 }
    }

    /// Number of bits written so far.
    #[cfg(test)]
    pub fn bit_len(&self) -> usize {
        if self.bytes.is_empty() {
            0
        } else {
            (self.bytes.len() - 1) * 8 + usize::from(self.used)
        }
    }

    /// Appends a single boolean as one bit.
    pub fn write_bool(&mut self, value: bool) {
        self.write_bits(u64::from(value), 1);
    }

    /// Appends the `count` least-significant bits of `value`, MSB first.
    ///
    /// Splices whole bytes at a time: the partial tail byte is topped up
    /// first, then full bytes of `value` are pushed directly, then any
    /// leftover high bits open a fresh byte. Byte-identical to writing
    /// the bits one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count == 0 {
            return;
        }
        let value = if count == 64 {
            value
        } else {
            value & ((1u64 << count) - 1)
        };
        let mut rem = count;
        // Top up the partially-used tail byte.
        if !self.bytes.is_empty() && self.used < 8 {
            let free = 8 - u32::from(self.used);
            let take = rem.min(free);
            let chunk = (value >> (rem - take)) & ((1u64 << take) - 1);
            if let Some(last) = self.bytes.last_mut() {
                *last |= (chunk as u8) << (free - take);
            }
            self.used += take as u8;
            rem -= take;
        }
        // Whole bytes straight from the value.
        while rem >= 8 {
            rem -= 8;
            self.bytes.push((value >> rem) as u8);
            self.used = 8;
        }
        // Leftover high bits open a fresh, right-padded byte.
        if rem > 0 {
            let chunk = (value & ((1u64 << rem) - 1)) as u8;
            self.bytes.push(chunk << (8 - rem));
            self.used = rem as u8;
        }
    }

    /// Appends a whole byte slice (bit-aligned to the current position).
    ///
    /// When the writer is byte-aligned this is a single `memcpy`; the
    /// unaligned case splices each byte across the boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.bytes.is_empty() || self.used == 8 {
            self.bytes.extend_from_slice(bytes);
            self.used = 8;
        } else {
            for &b in bytes {
                self.write_bits(u64::from(b), 8);
            }
        }
    }

    /// Consumes the writer, returning the packed bytes.
    ///
    /// The final byte is zero-padded on the right, as in UPER framing.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Sequential reader over a packed bit stream produced by [`BitWriter`].
///
/// # Example
///
/// ```
/// use uper::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), uper::UperError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b1101, 4);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(4)?, 0b1101);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bits remaining until the end of the underlying slice.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    #[cfg(test)]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one bit as a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::UnexpectedEnd`] at end of stream.
    pub fn read_bool(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `count` bits MSB-first into the low bits of a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::UnexpectedEnd`] if fewer than `count` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        // The shortage check runs before any cursor movement, so a failed
        // read consumes nothing.
        if self.remaining() < count as usize {
            return Err(UperError::UnexpectedEnd {
                requested: count as usize,
                remaining: self.remaining(),
            });
        }
        if count == 0 {
            return Ok(0);
        }
        let mut out = 0u64;
        let mut rem = count;
        let lead = (self.pos % 8) as u32;
        // The shortage check above keeps every byte read here in the
        // input, so the `0` fallback is never taken.
        let mut bytes = self.bytes.iter().skip(self.pos / 8);
        let mut next = || bytes.next().map_or(0, |&b| u32::from(b));
        // Tail of the partially-consumed lead byte.
        if lead != 0 {
            let avail = 8 - lead;
            let take = rem.min(avail);
            out = u64::from((next() >> (avail - take)) & ((1u32 << take) - 1));
            rem -= take;
        }
        // Whole bytes.
        while rem >= 8 {
            out = (out << 8) | u64::from(next());
            rem -= 8;
        }
        // Leading bits of the final byte.
        if rem > 0 {
            let byte = next();
            out = (out << rem) | u64::from((byte >> (8 - rem)) & ((1u32 << rem) - 1));
        }
        self.pos += count as usize;
        Ok(out)
    }

    /// Reads `len` whole bytes from the (possibly unaligned) stream.
    ///
    /// At byte-aligned positions this is a single slice copy.
    ///
    /// # Errors
    ///
    /// Returns [`UperError::UnexpectedEnd`] if the stream is too short; a
    /// failed read consumes nothing.
    pub fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>> {
        let needed = len * 8;
        if self.remaining() < needed {
            return Err(UperError::UnexpectedEnd {
                requested: needed,
                remaining: self.remaining(),
            });
        }
        if self.pos.is_multiple_of(8) {
            let start = self.pos / 8;
            self.pos += needed;
            return Ok(self.bytes[start..start + len].to_vec());
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.read_bits(8)? as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original bit-at-a-time writer/reader, kept as the reference
    /// the word-level implementation is property-tested against.
    mod reference {
        use super::super::{Result, UperError};

        #[derive(Default)]
        pub struct RefWriter {
            bytes: Vec<u8>,
            used: u8,
        }

        impl RefWriter {
            pub fn write_bits(&mut self, value: u64, count: u32) {
                for i in (0..count).rev() {
                    self.push_bit((value >> i) & 1 == 1);
                }
            }

            pub fn write_bytes(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.write_bits(u64::from(b), 8);
                }
            }

            fn push_bit(&mut self, bit: bool) {
                if self.bytes.is_empty() || self.used == 8 {
                    self.bytes.push(0);
                    self.used = 0;
                }
                if bit {
                    if let Some(last) = self.bytes.last_mut() {
                        *last |= 1 << (7 - self.used);
                    }
                }
                self.used += 1;
            }

            pub fn finish(self) -> Vec<u8> {
                self.bytes
            }
        }

        pub struct RefReader<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> RefReader<'a> {
            pub fn new(bytes: &'a [u8]) -> Self {
                Self { bytes, pos: 0 }
            }

            pub fn remaining(&self) -> usize {
                self.bytes.len() * 8 - self.pos
            }

            pub fn read_bits(&mut self, count: u32) -> Result<u64> {
                if self.remaining() < count as usize {
                    return Err(UperError::UnexpectedEnd {
                        requested: count as usize,
                        remaining: self.remaining(),
                    });
                }
                let mut out = 0u64;
                for _ in 0..count {
                    let byte = self.bytes[self.pos / 8];
                    let bit = (byte >> (7 - (self.pos % 8))) & 1;
                    out = (out << 1) | u64::from(bit);
                    self.pos += 1;
                }
                Ok(out)
            }
        }
    }

    #[test]
    fn empty_writer_produces_no_bytes() {
        assert!(BitWriter::new().finish().is_empty());
        assert_eq!(BitWriter::new().bit_len(), 0);
    }

    #[test]
    fn single_bit_layout_is_msb_first() {
        let mut w = BitWriter::new();
        w.write_bool(true);
        assert_eq!(w.finish(), vec![0b1000_0000]);
    }

    #[test]
    fn crossing_byte_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(0b1_1111, 5);
        w.write_bits(0b0001, 4); // crosses into second byte
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1000, 0b1000_0000]);
    }

    #[test]
    fn write_zero_bits_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn write_full_64_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF; 8]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn reader_end_of_stream() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        r.read_bits(8).unwrap();
        let err = r.read_bits(1).unwrap_err();
        assert!(matches!(err, UperError::UnexpectedEnd { .. }));
    }

    #[test]
    fn reader_tracks_position_and_remaining() {
        let bytes = [0x00, 0x00];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn bytes_roundtrip_unaligned() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bytes(&[0xDE, 0xAD]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xDE, 0xAD]);
    }

    proptest! {
        #[test]
        fn bits_roundtrip(value in any::<u64>(), count in 0u32..=64) {
            let masked = if count == 64 { value } else { value & ((1u64 << count) - 1) };
            let mut w = BitWriter::new();
            w.write_bits(masked, count);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(r.read_bits(count).unwrap(), masked);
        }

        #[test]
        fn many_fields_roundtrip(fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..32)) {
            let mut w = BitWriter::new();
            let mut expected = Vec::new();
            for &(v, c) in &fields {
                let masked = if c == 64 { v } else { v & ((1u64 << c) - 1) };
                w.write_bits(masked, c);
                expected.push((masked, c));
            }
            let total: usize = fields.iter().map(|&(_, c)| c as usize).sum();
            prop_assert_eq!(w.bit_len(), total);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (v, c) in expected {
                prop_assert_eq!(r.read_bits(c).unwrap(), v);
            }
        }

        #[test]
        fn arbitrary_read_sequences_never_panic(
            buf in proptest::collection::vec(any::<u8>(), 0..24),
            ops in proptest::collection::vec(0u32..=64, 0..24),
        ) {
            // Reads over arbitrary buffers are total: each op either
            // yields Ok (enough bits remained) or UnexpectedEnd — never a
            // panic — and the position/remaining bookkeeping stays exact.
            let mut r = BitReader::new(&buf);
            for &count in &ops {
                let before = r.remaining();
                let pos = r.position();
                prop_assert_eq!(pos + before, buf.len() * 8);
                let enough = before >= count as usize;
                match r.read_bits(count) {
                    Ok(v) => {
                        prop_assert!(enough, "Ok with only {before} bits for {count}");
                        if count < 64 {
                            prop_assert!(v < (1u64 << count));
                        }
                        prop_assert_eq!(r.position(), pos + count as usize);
                    }
                    Err(UperError::UnexpectedEnd { requested, remaining }) => {
                        prop_assert!(!enough, "Err with {before} bits for {count}");
                        prop_assert_eq!(requested, count as usize);
                        prop_assert_eq!(remaining, before);
                        // A failed read must not consume anything.
                        prop_assert_eq!(r.position(), pos);
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                }
            }
        }

        #[test]
        fn read_bytes_errors_cleanly_when_short(
            buf in proptest::collection::vec(any::<u8>(), 0..8),
            skew in 0u32..8,
            len in 0usize..12,
        ) {
            let mut r = BitReader::new(&buf);
            let _ = r.read_bits(skew.min(buf.len() as u32 * 8));
            let enough = r.remaining() >= len * 8;
            match r.read_bytes(len) {
                Ok(bytes) => {
                    prop_assert!(enough);
                    prop_assert_eq!(bytes.len(), len);
                }
                Err(UperError::UnexpectedEnd { .. }) => prop_assert!(!enough),
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }

        #[test]
        fn interleaved_bool_bits_bytes_roundtrip(
            flag in any::<bool>(),
            word in any::<u64>(),
            count in 1u32..=64,
            payload in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let masked = if count == 64 { word } else { word & ((1u64 << count) - 1) };
            let mut w = BitWriter::new();
            w.write_bool(flag);
            w.write_bits(masked, count);
            w.write_bytes(&payload);
            let expected_bits = 1 + count as usize + payload.len() * 8;
            prop_assert_eq!(w.bit_len(), expected_bits);
            let bytes = w.finish();
            // The writer never emits a fully-unused trailing byte.
            prop_assert_eq!(bytes.len(), expected_bits.div_ceil(8));
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(r.read_bool().unwrap(), flag);
            prop_assert_eq!(r.read_bits(count).unwrap(), masked);
            prop_assert_eq!(r.read_bytes(payload.len()).unwrap(), payload);
            // Only right-padding of the final byte may remain.
            prop_assert!(r.remaining() < 8);
        }

        #[test]
        fn word_level_writer_matches_bit_at_a_time_reference(
            fields in proptest::collection::vec(
                (0u8..3, any::<u64>(), 0u32..=64, proptest::collection::vec(any::<u8>(), 0..12)),
                0..24,
            ),
        ) {
            // The perf rewrite must be invisible on the wire: arbitrary
            // interleavings of bool/bits/bytes fields produce
            // byte-identical buffers from the word-level writer and the
            // original per-bit reference.
            let mut fast = BitWriter::new();
            let mut slow = reference::RefWriter::default();
            for &(kind, v, c, ref bytes) in &fields {
                match kind {
                    0 => {
                        fast.write_bool(v & 1 == 1);
                        slow.write_bits(v & 1, 1);
                    }
                    1 => {
                        fast.write_bits(v, c);
                        slow.write_bits(if c == 64 { v } else { v & ((1u64 << c) - 1) }, c);
                    }
                    _ => {
                        fast.write_bytes(bytes);
                        slow.write_bytes(bytes);
                    }
                }
            }
            prop_assert_eq!(fast.finish(), slow.finish());
        }

        #[test]
        fn word_level_reader_matches_bit_at_a_time_reference(
            buf in proptest::collection::vec(any::<u8>(), 0..24),
            ops in proptest::collection::vec(0u32..=64, 0..24),
        ) {
            // Same buffer, same op sequence: the word-level reader and
            // the per-bit reference agree on every value and on every
            // error's exact fields.
            let mut fast = BitReader::new(&buf);
            let mut slow = reference::RefReader::new(&buf);
            for &count in &ops {
                match (fast.read_bits(count), slow.read_bits(count)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (
                        Err(UperError::UnexpectedEnd { requested: ra, remaining: ma }),
                        Err(UperError::UnexpectedEnd { requested: rb, remaining: mb }),
                    ) => {
                        prop_assert_eq!(ra, rb);
                        prop_assert_eq!(ma, mb);
                    }
                    (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
                }
                prop_assert_eq!(fast.remaining(), slow.remaining());
            }
        }
    }
}
