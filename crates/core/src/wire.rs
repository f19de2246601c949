//! Versioned binary wire codec for [`RunRecord`].
//!
//! The shard protocol (DESIGN.md §10) ships run records between worker
//! and coordinator processes, so the record needs a stable, explicit
//! wire form. The codec follows the workspace's reference framing style
//! ([`geonet::bytesio`]): big-endian, panic-free, a failed read is a
//! typed error and never a panic.
//!
//! # Frame layout (version 3)
//!
//! ```text
//! u32  payload length          (length prefix, not counting itself)
//! u8   version                 (WIRE_VERSION = 3)
//! ...  fields in declaration order:
//!        Option<SimTime>       presence u8 (0|1) + u64 nanos
//!        Option<u64>/Option<f64> presence u8 + u64 (f64 via to_bits)
//!        f64                   u64 (to_bits)
//!        bool                  u8 (0|1)
//!        u64                   u64
//!        Trace                 u32 count + events, each
//!                                u64 nanos + 3 × (u32 len + UTF-8 bytes)
//!        FaultStats            8 × u64 + 2 × bool (appended by v2)
//!        CoopStats             3 × u64 (appended by v3)
//! ```
//!
//! Decoding is strict: unknown version, presence, or bool bytes are
//! rejected, as are trailing bytes after the declared payload — a frame
//! either decodes to exactly the record that produced it or fails with a
//! [`WireError`].
//!
//! # Backward compatibility
//!
//! Version bumps only ever *append* fields, and the decoder keeps
//! accepting every older version it has shipped: a version-1 frame
//! (before the fault plane existed) decodes to a record whose
//! [`FaultStats`] counters are all zero — exactly what a faultless v1
//! run would have reported — and a version-2 frame (before the
//! cooperative layer) decodes with zeroed [`CoopStats`] the same way.
//! Versions newer than [`WIRE_VERSION`] are rejected.

use crate::scenario::RunRecord;
use faults::{CoopStats, FaultStats};
use geonet::bytesio::{ByteReader, ByteWriterExt};
use geonet::GeonetError;
use sim_core::{SimTime, Trace, TraceEvent};

/// Current wire format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 3;

/// Oldest version [`RunRecord::decode_from`] still accepts.
pub const MIN_WIRE_VERSION: u8 = 1;

/// Error produced when decoding a [`RunRecord`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame was complete.
    Truncated {
        /// Bytes needed by the failed read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The version byte names a layout this build does not know.
    UnsupportedVersion(u8),
    /// A presence byte was neither 0 nor 1.
    BadPresence(u8),
    /// A bool byte was neither 0 nor 1.
    BadBool(u8),
    /// Bytes left over after the declared structure.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated record frame: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadPresence(b) => write!(f, "invalid option presence byte {b:#x}"),
            WireError::BadBool(b) => write!(f, "invalid bool byte {b:#x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
            WireError::BadUtf8 => write!(f, "trace string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<GeonetError> for WireError {
    fn from(e: GeonetError) -> Self {
        match e {
            GeonetError::Truncated { needed, remaining } => {
                WireError::Truncated { needed, remaining }
            }
            // ByteReader only ever reports truncation; the arm exists
            // because GeonetError is non_exhaustive.
            _ => WireError::Truncated {
                needed: 0,
                remaining: 0,
            },
        }
    }
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.put_u8(u8::from(v));
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.put_u8(1);
            out.put_u64(x);
        }
        None => out.put_u8(0),
    }
}

fn put_opt_time(out: &mut Vec<u8>, v: Option<SimTime>) {
    put_opt_u64(out, v.map(|t| t.as_nanos()));
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    put_opt_u64(out, v.map(f64::to_bits));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_bool(r: &mut ByteReader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::BadBool(b)),
    }
}

fn get_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        b => Err(WireError::BadPresence(b)),
    }
}

fn get_opt_time(r: &mut ByteReader<'_>) -> Result<Option<SimTime>, WireError> {
    Ok(get_opt_u64(r)?.map(SimTime::from_nanos))
}

fn get_opt_f64(r: &mut ByteReader<'_>) -> Result<Option<f64>, WireError> {
    Ok(get_opt_u64(r)?.map(f64::from_bits))
}

fn get_str(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
}

fn put_fault_stats(out: &mut Vec<u8>, s: &FaultStats) {
    out.put_u64(s.injected);
    out.put_u64(s.frames_corrupted);
    out.put_u64(s.corrupted_rejected);
    out.put_u64(s.http_stalls);
    out.put_u64(s.http_giveups);
    out.put_u64(s.watchdog_speed_caps);
    out.put_u64(s.watchdog_stops);
    out.put_u64(s.watchdog_recoveries);
    put_bool(out, s.failsafe_stop);
    put_bool(out, s.overran_camera);
}

fn put_coop_stats(out: &mut Vec<u8>, s: &CoopStats) {
    out.put_u64(s.cascade_depth);
    out.put_u64(s.cpm_extended_detections);
    out.put_u64(s.failsafe_stops);
}

fn get_coop_stats(r: &mut ByteReader<'_>) -> Result<CoopStats, WireError> {
    Ok(CoopStats {
        cascade_depth: r.u64()?,
        cpm_extended_detections: r.u64()?,
        failsafe_stops: r.u64()?,
    })
}

fn get_fault_stats(r: &mut ByteReader<'_>) -> Result<FaultStats, WireError> {
    Ok(FaultStats {
        injected: r.u64()?,
        frames_corrupted: r.u64()?,
        corrupted_rejected: r.u64()?,
        http_stalls: r.u64()?,
        http_giveups: r.u64()?,
        watchdog_speed_caps: r.u64()?,
        watchdog_stops: r.u64()?,
        watchdog_recoveries: r.u64()?,
        failsafe_stop: get_bool(r)?,
        overran_camera: get_bool(r)?,
    })
}

impl RunRecord {
    /// Encodes the record as one self-delimiting frame: a `u32` length
    /// prefix followed by a versioned payload. Frames can be written
    /// back to back on a stream and decoded with [`RunRecord::decode_from`].
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(256);
        p.put_u8(WIRE_VERSION);
        put_opt_time(&mut p, self.step1_crossing);
        put_opt_time(&mut p, self.step2_detection);
        put_opt_u64(&mut p, self.step2_wall_ms);
        put_opt_time(&mut p, self.step3_rsu_send);
        put_opt_u64(&mut p, self.step3_wall_ms);
        put_opt_time(&mut p, self.step4_obu_recv);
        put_opt_u64(&mut p, self.step4_wall_ms);
        put_opt_time(&mut p, self.step5_actuation);
        put_opt_u64(&mut p, self.step5_wall_ms);
        put_opt_time(&mut p, self.step6_halt);
        put_opt_f64(&mut p, self.odometer_at_detection_m);
        put_opt_f64(&mut p, self.odometer_at_halt_m);
        p.put_u64(self.speed_at_detection_mps.to_bits());
        put_opt_f64(&mut p, self.halt_distance_to_camera_m);
        put_opt_f64(&mut p, self.detection_distance_m);
        put_bool(&mut p, self.denm_delivered);
        p.put_u64(self.cams_received);
        p.put_u64(self.events_dispatched);
        p.put_u32(self.trace.events().len() as u32);
        for e in self.trace.events() {
            p.put_u64(e.time.as_nanos());
            put_str(&mut p, e.node);
            put_str(&mut p, e.kind);
            put_str(&mut p, e.detail);
        }
        put_fault_stats(&mut p, &self.fault);
        put_coop_stats(&mut p, &self.coop);
        let mut out = Vec::with_capacity(p.len() + 4);
        out.put_u32(p.len() as u32);
        out.extend_from_slice(&p);
        out
    }

    /// Decodes one frame that must span the whole buffer exactly.
    #[cfg(test)]
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let record = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(record)
    }

    /// Decodes one frame from the reader's current position, leaving the
    /// reader just past it — the streaming form the shard coordinator
    /// uses to peel consecutive records off a worker's result stream.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        let payload = r.take(len)?;
        let mut p = ByteReader::new(payload);
        let version = p.u8()?;
        if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion(version));
        }
        let step1_crossing = get_opt_time(&mut p)?;
        let step2_detection = get_opt_time(&mut p)?;
        let step2_wall_ms = get_opt_u64(&mut p)?;
        let step3_rsu_send = get_opt_time(&mut p)?;
        let step3_wall_ms = get_opt_u64(&mut p)?;
        let step4_obu_recv = get_opt_time(&mut p)?;
        let step4_wall_ms = get_opt_u64(&mut p)?;
        let step5_actuation = get_opt_time(&mut p)?;
        let step5_wall_ms = get_opt_u64(&mut p)?;
        let step6_halt = get_opt_time(&mut p)?;
        let odometer_at_detection_m = get_opt_f64(&mut p)?;
        let odometer_at_halt_m = get_opt_f64(&mut p)?;
        let speed_at_detection_mps = f64::from_bits(p.u64()?);
        let halt_distance_to_camera_m = get_opt_f64(&mut p)?;
        let detection_distance_m = get_opt_f64(&mut p)?;
        let denm_delivered = get_bool(&mut p)?;
        let cams_received = p.u64()?;
        let events_dispatched = p.u64()?;
        let n_events = p.u32()? as usize;
        // No with_capacity on the untrusted count: a lying header runs
        // into Truncated within one event's minimum size.
        let mut trace = Trace::new();
        for _ in 0..n_events {
            let time = SimTime::from_nanos(p.u64()?);
            let node = get_str(&mut p)?;
            let kind = get_str(&mut p)?;
            let detail = get_str(&mut p)?;
            trace.extend([TraceEvent {
                time,
                node: &node,
                kind: &kind,
                detail: &detail,
            }]);
        }
        // Version 1 predates the fault plane; its records decode with
        // zeroed counters, the values a faultless run reports.
        let fault = if version >= 2 {
            get_fault_stats(&mut p)?
        } else {
            FaultStats::default()
        };
        // Version 2 predates the cooperative layer; its records decode
        // with zeroed coop counters.
        let coop = if version >= 3 {
            get_coop_stats(&mut p)?
        } else {
            CoopStats::default()
        };
        if p.remaining() != 0 {
            return Err(WireError::TrailingBytes(p.remaining()));
        }
        Ok(RunRecord {
            step1_crossing,
            step2_detection,
            step2_wall_ms,
            step3_rsu_send,
            step3_wall_ms,
            step4_obu_recv,
            step4_wall_ms,
            step5_actuation,
            step5_wall_ms,
            step6_halt,
            odometer_at_detection_m,
            odometer_at_halt_m,
            speed_at_detection_mps,
            halt_distance_to_camera_m,
            detection_distance_m,
            denm_delivered,
            cams_received,
            events_dispatched,
            trace,
            fault,
            coop,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};
    use proptest::prelude::*;

    fn sample_record() -> RunRecord {
        Scenario::run_seeded(
            &ScenarioConfig {
                seed: 4242,
                ..ScenarioConfig::default()
            },
            3,
        )
    }

    fn records_bitwise_equal(a: &RunRecord, b: &RunRecord) -> bool {
        a.encode() == b.encode()
    }

    #[test]
    fn real_record_roundtrips_bitwise() {
        let record = sample_record();
        let bytes = record.encode();
        let back = RunRecord::decode(&bytes).unwrap();
        assert!(records_bitwise_equal(&record, &back));
        assert_eq!(record.trace.digest(), back.trace.digest());
        assert_eq!(
            record.speed_at_detection_mps.to_bits(),
            back.speed_at_detection_mps.to_bits()
        );
    }

    #[test]
    fn frames_stream_back_to_back() {
        let a = sample_record();
        let b = Scenario::run_seeded(&ScenarioConfig::default(), 9);
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let mut r = ByteReader::new(&stream);
        let a2 = RunRecord::decode_from(&mut r).unwrap();
        let b2 = RunRecord::decode_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(records_bitwise_equal(&a, &a2));
        assert!(records_bitwise_equal(&b, &b2));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample_record().encode();
        bytes[4] = 99; // version byte sits right after the length prefix
        assert_eq!(
            RunRecord::decode(&bytes),
            Err(WireError::UnsupportedVersion(99))
        );
        bytes[4] = 0; // version 0 never shipped
        assert_eq!(
            RunRecord::decode(&bytes),
            Err(WireError::UnsupportedVersion(0))
        );
    }

    /// A frame captured verbatim from the version-1 encoder (the build
    /// immediately before the fault plane landed). The compat rule under
    /// test: old frames keep decoding, with zeroed fault counters.
    const V1_FRAME: &[u8] = &[
        0x00, 0x00, 0x00, 0xf1, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x62, 0x86, 0xc7, 0x40, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x65, 0x53, 0xf1, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x3b, 0x9a,
        0xd0, 0xa4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x68, 0xe7, 0x78, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x3b, 0x9a, 0xd0, 0xe0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x69, 0x33, 0xc3, 0x40, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x3b, 0x9a, 0xd0, 0xe5, 0x01, 0x00, 0x00, 0x00, 0x00, 0x6a, 0xb1,
        0x3b, 0x80, 0x01, 0x00, 0x00, 0x00, 0x00, 0x3b, 0x9a, 0xd0, 0xfe, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x89, 0x17, 0x37, 0x00, 0x01, 0x40, 0x04, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x01,
        0x40, 0x0b, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x3f, 0xf8, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x01, 0x3f, 0xe3, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x01, 0x3f, 0xf7, 0xae, 0x14,
        0x7a, 0xe1, 0x47, 0xae, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x21, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x9c, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x65,
        0x53, 0xf1, 0x00, 0x00, 0x00, 0x00, 0x04, 0x65, 0x64, 0x67, 0x65, 0x00, 0x00, 0x00, 0x05,
        0x73, 0x74, 0x65, 0x70, 0x32, 0x00, 0x00, 0x00, 0x11, 0x64, 0x65, 0x74, 0x65, 0x63, 0x74,
        0x69, 0x6f, 0x6e, 0x20, 0x64, 0x65, 0x63, 0x69, 0x64, 0x65, 0x64, 0x00, 0x00, 0x00, 0x00,
        0x68, 0xe7, 0x78, 0x00, 0x00, 0x00, 0x00, 0x03, 0x72, 0x73, 0x75, 0x00, 0x00, 0x00, 0x05,
        0x73, 0x74, 0x65, 0x70, 0x33, 0x00, 0x00, 0x00, 0x0b, 0x64, 0x65, 0x6e, 0x6d, 0x20, 0x6f,
        0x6e, 0x20, 0x61, 0x69, 0x72,
    ];

    /// The record the captured v1 frame was produced from.
    fn v1_capture_record() -> RunRecord {
        let mut trace = Trace::new();
        trace.record(
            SimTime::from_millis(1700),
            "edge",
            "step2",
            "detection decided",
        );
        trace.record(SimTime::from_millis(1760), "rsu", "step3", "denm on air");
        RunRecord {
            step1_crossing: Some(SimTime::from_millis(1653)),
            step2_detection: Some(SimTime::from_millis(1700)),
            step2_wall_ms: Some(1_000_001_700),
            step3_rsu_send: Some(SimTime::from_millis(1760)),
            step3_wall_ms: Some(1_000_001_760),
            step4_obu_recv: Some(SimTime::from_millis(1765)),
            step4_wall_ms: Some(1_000_001_765),
            step5_actuation: Some(SimTime::from_millis(1790)),
            step5_wall_ms: Some(1_000_001_790),
            step6_halt: Some(SimTime::from_millis(2300)),
            odometer_at_detection_m: Some(2.55),
            odometer_at_halt_m: Some(3.4),
            speed_at_detection_mps: 1.5,
            halt_distance_to_camera_m: Some(0.6),
            detection_distance_m: Some(1.48),
            denm_delivered: true,
            cams_received: 33,
            events_dispatched: 412,
            trace,
            fault: FaultStats::default(),
            coop: CoopStats::default(),
        }
    }

    /// Size of the fault-stats tail version 2 appended to v1 frames.
    const V2_TAIL: usize = 8 * 8 + 2; // 8 u64 counters + 2 bools

    /// Size of the coop-stats tail version 3 appends to v2 frames.
    const V3_TAIL: usize = 3 * 8; // 3 u64 counters

    /// The captured v1 frame re-framed as the version-2 encoder wrote
    /// it: length prefix grown by the fault-stats tail, version byte
    /// bumped, zeroed tail appended. Byte-for-byte what the v2 build
    /// produced for the captured record, synthesized instead of
    /// captured because v2 was defined as exactly this append.
    fn v2_frame() -> Vec<u8> {
        let payload_len = (V1_FRAME.len() - 4 + V2_TAIL) as u32;
        let mut frame = Vec::with_capacity(V1_FRAME.len() + V2_TAIL);
        frame.extend_from_slice(&payload_len.to_be_bytes());
        frame.push(2);
        frame.extend_from_slice(&V1_FRAME[5..]);
        frame.extend(std::iter::repeat_n(0, V2_TAIL));
        frame
    }

    #[test]
    fn version1_frame_decodes_with_zeroed_fault_counters() {
        assert_eq!(V1_FRAME[4], 1, "captured frame must be version 1");
        let record = RunRecord::decode(V1_FRAME).expect("v1 frame must keep decoding");
        assert_eq!(record.fault, FaultStats::default());
        assert_eq!(record, v1_capture_record());
    }

    #[test]
    fn version1_frame_truncation_still_fails_cleanly() {
        for cut in 0..V1_FRAME.len() {
            assert!(RunRecord::decode(&V1_FRAME[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn version2_frame_decodes_with_zeroed_coop_counters() {
        let v2 = v2_frame();
        assert_eq!(v2[4], 2, "synthetic frame must be version 2");
        let record = RunRecord::decode(&v2).expect("v2 frame must keep decoding");
        assert_eq!(record.coop, CoopStats::default());
        assert_eq!(record, v1_capture_record());
    }

    #[test]
    fn version2_frame_truncation_still_fails_cleanly() {
        let v2 = v2_frame();
        for cut in 0..v2.len() {
            assert!(RunRecord::decode(&v2[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn version3_appends_coop_stats_after_v2_layout() {
        // Re-encoding the captured record under the current version must
        // produce the v2 bytes (with the version byte bumped) followed by
        // exactly the coop-stats tail — the append-only compat rule,
        // applied once per version bump.
        let v2 = v2_frame();
        let v3 = v1_capture_record().encode();
        assert_eq!(v3.len(), v2.len() + V3_TAIL);
        assert_eq!(v3.len(), V1_FRAME.len() + V2_TAIL + V3_TAIL);
        assert_eq!(v3[4], WIRE_VERSION);
        assert_eq!(&v3[5..v2.len()], &v2[5..]);
        assert!(v3[v2.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn fault_stats_roundtrip_bitwise() {
        let mut record = sample_record();
        record.fault = FaultStats {
            injected: 17,
            frames_corrupted: 5,
            corrupted_rejected: 4,
            http_stalls: 3,
            http_giveups: 1,
            watchdog_speed_caps: 2,
            watchdog_stops: 1,
            watchdog_recoveries: 1,
            failsafe_stop: true,
            overran_camera: false,
        };
        record.coop = CoopStats {
            cascade_depth: 3,
            cpm_extended_detections: 12,
            failsafe_stops: 2,
        };
        let back = RunRecord::decode(&record.encode()).unwrap();
        assert_eq!(back.fault, record.fault);
        assert_eq!(back.coop, record.coop);
        assert!(records_bitwise_equal(&record, &back));
    }

    #[test]
    fn bad_presence_and_trailing_bytes_rejected() {
        let mut bytes = sample_record().encode();
        bytes[5] = 7; // first presence byte
        assert_eq!(RunRecord::decode(&bytes), Err(WireError::BadPresence(7)));

        let mut padded = sample_record().encode();
        padded.push(0);
        // The extra byte is outside the declared payload.
        assert_eq!(RunRecord::decode(&padded), Err(WireError::TrailingBytes(1)));
    }

    proptest! {
        #[test]
        fn truncation_never_panics(cut in 0usize..4096) {
            let bytes = sample_record().encode();
            let cut = cut.min(bytes.len().saturating_sub(1));
            // Every strict prefix must fail cleanly — never panic, never
            // produce a record from partial data.
            prop_assert!(RunRecord::decode(&bytes[..cut]).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = RunRecord::decode(&bytes);
            let mut r = ByteReader::new(&bytes);
            let _ = RunRecord::decode_from(&mut r);
        }

        #[test]
        fn corrupted_byte_never_panics(flip in 0usize..4096, xor in 1u8..=255) {
            let mut bytes = sample_record().encode();
            let flip = flip % bytes.len();
            bytes[flip] ^= xor;
            // Either a clean error or a decode of the corrupted frame —
            // never a panic.
            let _ = RunRecord::decode(&bytes);
        }

        #[test]
        fn option_and_float_fields_roundtrip(
            has_halt in any::<bool>(),
            wall in proptest::option::of(any::<u64>()),
            odo in proptest::option::of(-1e9f64..1e9),
            speed in -1e6f64..1e6,
            delivered in any::<bool>(),
        ) {
            let mut record = sample_record();
            record.step6_halt = if has_halt { record.step6_halt } else { None };
            record.step5_wall_ms = wall;
            record.odometer_at_halt_m = odo;
            record.speed_at_detection_mps = speed;
            record.denm_delivered = delivered;
            let back = RunRecord::decode(&record.encode()).unwrap();
            prop_assert_eq!(back.step5_wall_ms, record.step5_wall_ms);
            prop_assert_eq!(
                back.odometer_at_halt_m.map(f64::to_bits),
                record.odometer_at_halt_m.map(f64::to_bits)
            );
            prop_assert_eq!(
                back.speed_at_detection_mps.to_bits(),
                record.speed_at_detection_mps.to_bits()
            );
            prop_assert_eq!(back.denm_delivered, record.denm_delivered);
            prop_assert!(records_bitwise_equal(&record, &back));
        }
    }
}
