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
/// Entries never expire: the standard's entry lifetime (20 s by
/// default) is not modelled.
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
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, unspecified order.
    pub fn entries(&self) -> &[LocTableEntry] {
        &self.entries
    }

    /// The entry for `address`, if known.
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

    /// Drops entries not refreshed within `lifetime_ms`. Returns how
    /// many were removed.
    #[cfg(test)]
    pub fn purge(&mut self, now_ms: u64, lifetime_ms: u64) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| now_ms.saturating_sub(e.updated_ms) <= lifetime_ms);
        before - self.entries.len()
    }

    /// Stations heard within `radius_m` of a point (degrees), nearest
    /// first — the neighbourhood view used by forwarding algorithms.
    #[cfg(test)]
    pub fn neighbours_within(
        &self,
        lat_deg: f64,
        lon_deg: f64,
        radius_m: f64,
    ) -> Vec<&LocTableEntry> {
        const EARTH_RADIUS_M: f64 = 6_371_000.0;
        let mut hits: Vec<(f64, &LocTableEntry)> = self
            .entries
            .iter()
            .filter_map(|e| {
                let dlat = (e.position.latitude_deg() - lat_deg).to_radians();
                let dlon = (e.position.longitude_deg() - lon_deg).to_radians()
                    * lat_deg.to_radians().cos();
                let d = EARTH_RADIUS_M * (dlat * dlat + dlon * dlon).sqrt();
                (d <= radius_m).then_some((d, e))
            })
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0));
        hits.into_iter().map(|(_, e)| e).collect()
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

    #[test]
    fn purge_expires_stale_entries() {
        let mut t = LocationTable::new();
        t.update(pv(1, 41.0), 0);
        t.update(pv(2, 41.1), 900);
        assert_eq!(t.purge(1500, 1000), 1);
        assert!(t.entry(GnAddress::new(1)).is_none());
        assert!(t.entry(GnAddress::new(2)).is_some());
    }

    #[test]
    fn neighbours_sorted_by_distance() {
        let m_per_deg = 111_194.9;
        let mut t = LocationTable::new();
        t.update(pv(1, 41.178 + 30.0 / m_per_deg), 0);
        t.update(pv(2, 41.178 + 5.0 / m_per_deg), 0);
        t.update(pv(3, 41.178 + 500.0 / m_per_deg), 0);
        let near = t.neighbours_within(41.178, -8.608, 100.0);
        let ids: Vec<u64> = near.iter().map(|e| e.address.mid()).collect();
        assert_eq!(ids, vec![2, 1]);
    }
}
