//! Error type shared by every encode/decode operation in this crate.

use std::error::Error;
use std::fmt;

/// Error produced when encoding or decoding UPER bit streams.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UperError {
    /// The reader ran past the end of the input bit stream.
    ///
    /// Carries the number of bits that were requested but unavailable.
    UnexpectedEnd {
        /// Bits requested by the failed read.
        requested: usize,
        /// Bits remaining in the stream at the time of the read.
        remaining: usize,
    },
    /// A value fell outside its ASN.1 constrained range.
    OutOfRange {
        /// The offending value (widened to `i128` so any field fits).
        value: i128,
        /// Inclusive lower bound of the constraint.
        min: i128,
        /// Inclusive upper bound of the constraint.
        max: i128,
    },
    /// A sequence length exceeded the maximum its field allows.
    LengthTooLarge(usize),
    /// An enumerated value decoded to an index with no corresponding variant.
    InvalidEnum {
        /// The decoded index.
        index: u64,
        /// Name of the enumeration, for diagnostics.
        name: &'static str,
    },
    /// A decoded character was not valid for the string type (malformed
    /// UTF-8).
    InvalidCharacter(u32),
    /// A constraint was itself malformed (`min > max`).
    BadConstraint {
        /// Lower bound supplied by the caller.
        min: i128,
        /// Upper bound supplied by the caller.
        max: i128,
    },
}

impl fmt::Display for UperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UperError::UnexpectedEnd {
                requested,
                remaining,
            } => write!(
                f,
                "unexpected end of bit stream: requested {requested} bits, {remaining} remaining"
            ),
            UperError::OutOfRange { value, min, max } => {
                write!(f, "value {value} outside constrained range [{min}, {max}]")
            }
            UperError::LengthTooLarge(len) => {
                write!(f, "length determinant {len} exceeds supported maximum")
            }
            UperError::InvalidEnum { index, name } => {
                write!(f, "index {index} is not a variant of enumeration {name}")
            }
            UperError::InvalidCharacter(c) => {
                write!(f, "code point {c} is not valid for this string type")
            }
            UperError::BadConstraint { min, max } => {
                write!(f, "malformed constraint: min {min} > max {max}")
            }
        }
    }
}

impl Error for UperError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = UperError::OutOfRange {
            value: 7,
            min: 0,
            max: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains('7'));
        assert!(msg.starts_with("value"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UperError>();
    }
}
