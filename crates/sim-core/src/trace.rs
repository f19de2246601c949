//! Event tracing with a stable digest.
//!
//! Experiments record what happened and when (DENM sent, DENM received,
//! actuator command, vehicle halted). [`Trace`] collects these records and
//! computes an FNV-based digest over the full sequence, which the
//! determinism integration test uses to assert that two runs with the same
//! seed are byte-identical.
//!
//! Records live in a single string arena: one `Trace` owns one growing
//! byte buffer plus fixed-size range entries, so a whole run's trace
//! costs two allocations instead of three `String`s per record. Details
//! are usually formatted values — [`Trace::record_fmt`] writes them
//! straight into the arena with no intermediate `String`.

use crate::time::SimTime;
use std::fmt::{self, Write as _};

/// One record as stored: arena byte ranges for the three strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawEvent {
    time: SimTime,
    node: (u32, u32),
    kind: (u32, u32),
    detail: (u32, u32),
}

/// One record in a trace, viewed against its trace's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    /// Simulation instant of the event.
    pub time: SimTime,
    /// Node that produced it (e.g. `"rsu"`, `"obu"`, `"vehicle"`).
    pub node: &'a str,
    /// Short machine-readable kind (e.g. `"denm_tx"`).
    pub kind: &'a str,
    /// Free-form detail.
    pub detail: &'a str,
}

impl fmt::Display for TraceEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}: {}",
            self.time, self.node, self.kind, self.detail
        )
    }
}

/// An append-only event trace.
///
/// # Example
///
/// ```
/// use sim_core::{SimTime, Trace};
///
/// let mut t = Trace::new();
/// t.record(SimTime::from_millis(3), "rsu", "denm_tx", "seq=1");
/// assert_eq!(t.len(), 1);
/// let d1 = t.digest();
/// t.record_fmt(SimTime::from_millis(4), "obu", "denm_rx", format_args!("seq={}", 1));
/// assert_ne!(t.digest(), d1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    arena: String,
    events: Vec<RawEvent>,
}

/// First-record arena reservation: covers a typical scenario run's
/// whole trace in one allocation, and large traces (wire decode of a
/// long run) keep growing past it amortised.
const ARENA_RESERVE: usize = 256;
const EVENTS_RESERVE: usize = 16;

impl Trace {
    /// Creates an empty trace. Allocation is deferred to the first
    /// record.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, s: &str) -> (u32, u32) {
        let start = self.arena.len();
        self.arena.push_str(s);
        (start as u32, self.arena.len() as u32)
    }

    fn reserve_for_record(&mut self) {
        if self.arena.capacity() == 0 {
            self.arena.reserve(ARENA_RESERVE);
        }
        if self.events.capacity() == 0 {
            self.events.reserve(EVENTS_RESERVE);
        }
    }

    /// Appends a record.
    pub fn record(&mut self, time: SimTime, node: &str, kind: &str, detail: &str) {
        self.reserve_for_record();
        let node = self.intern(node);
        let kind = self.intern(kind);
        let detail = self.intern(detail);
        self.events.push(RawEvent {
            time,
            node,
            kind,
            detail,
        });
    }

    /// Appends a record whose detail is formatted directly into the
    /// trace arena — the allocation-free form of
    /// `record(time, node, kind, &format!(…))`.
    pub fn record_fmt(
        &mut self,
        time: SimTime,
        node: &str,
        kind: &str,
        detail: fmt::Arguments<'_>,
    ) {
        self.reserve_for_record();
        let node = self.intern(node);
        let kind = self.intern(kind);
        let start = self.arena.len();
        // Infallible: `String`'s `fmt::Write` never errors.
        let _ = self.arena.write_fmt(detail);
        let detail = (start as u32, self.arena.len() as u32);
        self.events.push(RawEvent {
            time,
            node,
            kind,
            detail,
        });
    }

    fn slice(&self, range: (u32, u32)) -> &str {
        self.arena
            .get(range.0 as usize..range.1 as usize)
            .unwrap_or("")
    }

    fn view(&self, e: &RawEvent) -> TraceEvent<'_> {
        TraceEvent {
            time: e.time,
            node: self.slice(e.node),
            kind: self.slice(e.kind),
            detail: self.slice(e.detail),
        }
    }

    /// All records, in insertion order.
    pub fn events(&self) -> TraceEvents<'_> {
        TraceEvents {
            trace: self,
            inner: self.events.iter(),
        }
    }

    /// Records matching `kind`.
    #[cfg(test)]
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = TraceEvent<'a>> + 'a {
        self.events().filter(move |e| e.kind == kind)
    }

    /// First record of the given kind, if any.
    // detlint:allow(U1) tests/end_to_end.rs checks that each pipeline step left a trace record
    pub fn first_of_kind(&self, kind: &str) -> Option<TraceEvent<'_>> {
        self.events().find(|e| e.kind == kind)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Stable 64-bit digest over every record (FNV-1a over time, node,
    /// kind and detail). Identical traces — and only identical traces, up
    /// to hash collisions — produce the same digest.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in &self.events {
            eat(&e.time.as_nanos().to_le_bytes());
            eat(self.slice(e.node).as_bytes());
            eat(&[0xFF]);
            eat(self.slice(e.kind).as_bytes());
            eat(&[0xFE]);
            eat(self.slice(e.detail).as_bytes());
            eat(&[0xFD]);
        }
        h
    }
}

/// Iterator over a trace's records ([`Trace::events`]).
#[derive(Debug, Clone)]
pub struct TraceEvents<'a> {
    trace: &'a Trace,
    inner: std::slice::Iter<'a, RawEvent>,
}

impl<'a> Iterator for TraceEvents<'a> {
    type Item = TraceEvent<'a>;
    fn next(&mut self) -> Option<TraceEvent<'a>> {
        self.inner.next().map(|e| self.trace.view(e))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for TraceEvents<'_> {}

impl<'a> Extend<TraceEvent<'a>> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent<'a>>>(&mut self, iter: T) {
        for e in iter {
            self.record(e.time, e.node, e.kind, e.detail);
        }
    }
}

impl<'a> FromIterator<TraceEvent<'a>> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent<'a>>>(iter: T) -> Self {
        let mut t = Self::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::from_millis(1), "edge", "detect", "d=1.45");
        t.record(SimTime::from_millis(2), "rsu", "denm_tx", "seq=1");
        t.record(SimTime::from_millis(3), "obu", "denm_rx", "seq=1");
        t
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        assert_eq!(sample().digest(), sample().digest());
        let mut reordered = Trace::new();
        reordered.record(SimTime::from_millis(2), "rsu", "denm_tx", "seq=1");
        reordered.record(SimTime::from_millis(1), "edge", "detect", "d=1.45");
        reordered.record(SimTime::from_millis(3), "obu", "denm_rx", "seq=1");
        assert_ne!(sample().digest(), reordered.digest());
    }

    #[test]
    fn digest_distinguishes_field_boundaries() {
        let mut a = Trace::new();
        a.record(SimTime::ZERO, "ab", "c", "");
        let mut b = Trace::new();
        b.record(SimTime::ZERO, "a", "bc", "");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_matches_pre_arena_layout() {
        // The digest byte stream is unchanged by the arena refactor:
        // this value was computed with the per-record `String` storage.
        let mut t = Trace::new();
        t.record(SimTime::from_millis(7), "rsu", "denm_tx", "seq=9");
        assert_eq!(t.digest(), {
            // Inline FNV-1a over the identical byte sequence.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in SimTime::from_millis(7)
                .as_nanos()
                .to_le_bytes()
                .iter()
                .chain(b"rsu\xFFdenm_tx\xFEseq=9\xFD")
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn record_fmt_matches_record() {
        let mut a = Trace::new();
        a.record(SimTime::from_millis(5), "world", "overrun", "x=1.250");
        let mut b = Trace::new();
        b.record_fmt(
            SimTime::from_millis(5),
            "world",
            "overrun",
            format_args!("x={:.3}", 1.25),
        );
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn kind_filters() {
        let t = sample();
        assert_eq!(t.of_kind("denm_tx").count(), 1);
        assert_eq!(t.first_of_kind("denm_rx").unwrap().node, "obu");
        assert!(t.first_of_kind("missing").is_none());
    }

    #[test]
    fn display_format() {
        let t = sample();
        let s = t.events().next().unwrap().to_string();
        assert!(s.contains("edge"), "{s}");
        assert!(s.contains("detect"), "{s}");
    }

    #[test]
    fn collect_and_extend() {
        let source = sample();
        let t: Trace = source.events().collect();
        assert_eq!(t.len(), 3);
        let mut u = Trace::new();
        u.extend(source.events());
        assert_eq!(u.digest(), t.digest());
        assert_eq!(source.digest(), t.digest());
    }

    #[test]
    fn whole_run_trace_costs_two_allocations() {
        // The reserve policy front-loads one arena + one events
        // allocation; a typical run's worth of records fits inside.
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.record_fmt(
                SimTime::from_millis(i),
                "rsu",
                "denm_tx",
                format_args!("seq={i}"),
            );
        }
        assert!(t.arena.capacity() == ARENA_RESERVE);
        assert!(t.events.capacity() == EVENTS_RESERVE);
    }
}
