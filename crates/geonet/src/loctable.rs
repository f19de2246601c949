//! GeoNetworking Location Table and duplicate packet detection
//! (EN 302 636-4-1 §8.1 and Annex A.2).
//!
//! Every GeoNetworking router keeps a Location Table with one entry per
//! known ITS station (from the position vectors of received packets) and
//! performs duplicate packet detection on GeoBroadcast traffic using the
//! `(source address, sequence number)` pair, so a forwarded or repeated
//! GBC packet is processed only once.

use crate::position::{GnAddress, LongPositionVector};

/// One Location Table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LocTableEntry {
    /// The station's GeoNetworking address.
    pub address: GnAddress,
    /// Most recent position vector heard from it.
    pub position: LongPositionVector,
    /// Wall timestamp (ms) of the last update.
    pub updated_ms: u64,
    /// Greatest GBC sequence number seen (for duplicate detection).
    last_sequence: Option<u16>,
    /// Packets received from this source.
    pub packets: u64,
}

/// The Location Table of one GeoNetworking router.
///
/// Entries never expire. EN 302 636-4-1 drops an entry after its
/// lifetime (20 s by default); no run needs that, because no program
/// reads the table (DESIGN.md §2).
///
/// # Example
///
/// ```
/// use geonet::loctable::LocationTable;
/// use geonet::{GnAddress, LongPositionVector};
///
/// let mut table = LocationTable::new();
/// let pv = LongPositionVector::new(GnAddress::new(7), 100, 41.178, -8.608, 1.5, 90.0);
/// table.update(pv, 100);
/// assert_eq!(table.len(), 1);
/// // First copy of GBC sequence 5 is fresh; the second is a duplicate.
/// assert!(!table.is_duplicate(GnAddress::new(7), 5));
/// assert!(table.is_duplicate(GnAddress::new(7), 5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocationTable {
    entries: Vec<LocTableEntry>,
}

impl LocationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known stations.
    // detlint:allow(U1) openc2x's node tests and this type's doc example count the learnt stations
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    // detlint:allow(U1) clippy's len_without_is_empty pairs it with `len`
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `address`, if known.
    // detlint:allow(U1) openc2x's node tests read the learnt neighbour entry
    pub fn entry(&self, address: GnAddress) -> Option<&LocTableEntry> {
        self.entries.iter().find(|e| e.address == address)
    }

    /// Updates (or creates) the entry for the packet source.
    pub fn update(&mut self, position: LongPositionVector, now_ms: u64) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.address == position.address)
        {
            Some(e) => {
                e.position = position;
                e.updated_ms = now_ms;
                e.packets += 1;
            }
            None => self.entries.push(LocTableEntry {
                address: position.address,
                position,
                updated_ms: now_ms,
                last_sequence: None,
                packets: 1,
            }),
        }
    }

    /// Duplicate packet detection for GBC traffic: returns `true` if
    /// `(source, sequence)` was already seen. Uses the standard serial-
    /// number comparison (RFC 1982-style half-window) so sequence
    /// wrap-around is handled.
    pub fn is_duplicate(&mut self, source: GnAddress, sequence: u16) -> bool {
        let entry = match self.entries.iter_mut().find(|e| e.address == source) {
            Some(e) => e,
            None => {
                // Unknown source: create a placeholder entry so the
                // sequence is remembered even before a position update.
                self.entries.push(LocTableEntry {
                    address: source,
                    position: LongPositionVector::new(source, 0, 0.0, 0.0, 0.0, 0.0),
                    updated_ms: 0,
                    last_sequence: Some(sequence),
                    packets: 0,
                });
                return false;
            }
        };
        match entry.last_sequence {
            None => {
                entry.last_sequence = Some(sequence);
                false
            }
            Some(last) => {
                // `sequence` is new iff it is "greater" than `last` in
                // serial-number arithmetic.
                let diff = sequence.wrapping_sub(last);
                let newer = diff != 0 && diff < 0x8000;
                if newer {
                    entry.last_sequence = Some(sequence);
                }
                !newer
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(mid: u64, lat: f64) -> LongPositionVector {
        LongPositionVector::new(GnAddress::new(mid), 0, lat, -8.608, 1.5, 90.0)
    }

    #[test]
    fn update_creates_then_refreshes() {
        let mut t = LocationTable::new();
        t.update(pv(7, 41.178), 100);
        t.update(pv(7, 41.179), 200);
        assert_eq!(t.len(), 1);
        let e = t.entry(GnAddress::new(7)).unwrap();
        assert_eq!(e.packets, 2);
        assert_eq!(e.updated_ms, 200);
        assert!((e.position.latitude_deg() - 41.179).abs() < 1e-6);
    }

    #[test]
    fn duplicate_detection_basic() {
        let mut t = LocationTable::new();
        t.update(pv(7, 41.178), 0);
        assert!(!t.is_duplicate(GnAddress::new(7), 1));
        assert!(t.is_duplicate(GnAddress::new(7), 1));
        assert!(!t.is_duplicate(GnAddress::new(7), 2));
        // An older sequence is also a duplicate.
        assert!(t.is_duplicate(GnAddress::new(7), 1));
    }

    #[test]
    fn duplicate_detection_handles_wraparound() {
        let mut t = LocationTable::new();
        t.update(pv(7, 41.178), 0);
        assert!(!t.is_duplicate(GnAddress::new(7), 0xFFFE));
        assert!(!t.is_duplicate(GnAddress::new(7), 0xFFFF));
        // Wrap to 0: serially newer.
        assert!(!t.is_duplicate(GnAddress::new(7), 0));
        assert!(t.is_duplicate(GnAddress::new(7), 0xFFFF));
    }

    #[test]
    fn duplicate_from_unknown_source_creates_placeholder() {
        let mut t = LocationTable::new();
        assert!(!t.is_duplicate(GnAddress::new(9), 3));
        assert!(t.is_duplicate(GnAddress::new(9), 3));
        assert_eq!(t.len(), 1);
    }
}
