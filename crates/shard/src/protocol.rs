//! The shard frame protocol (DESIGN.md §10/§14).
//!
//! This module owns every byte of the worker protocol — the `"SHRD"`
//! assignment frame, the `"SHRS"`…`"SHRE"` result stream of
//! length-prefixed wire [`RunRecord`] frames, and the
//! registry-fingerprint handshake — with **no** knowledge of what
//! carries those bytes. The coordinator ships them over a
//! [`TcpTransport`](crate::transport::TcpTransport); the worker side is
//! [`serve_stream`], which reads one assignment from any `Read` and
//! answers on any `Write`, so the codec is tested in memory exactly as
//! the socket worker loop runs it.

use crate::ShardError;
use geonet::bytesio::{ByteReader, ByteWriterExt};
use its_testbed::campaign::{grid_fingerprint, CampaignRegistry, CampaignSpec, FlatGrid};
use its_testbed::RunRecord;
use std::io::{Read, Write};

/// Wire version of the shard assignment/result protocol.
pub const PROTOCOL_VERSION: u8 = 1;
/// Assignment frame magic (coordinator → worker).
pub(crate) const ASSIGN_MAGIC: &[u8; 4] = b"SHRD";
/// Result stream magic (worker → coordinator).
pub(crate) const RESULT_MAGIC: &[u8; 4] = b"SHRS";
/// Result stream trailer: guards against a worker dying mid-write.
pub(crate) const RESULT_TRAILER: &[u8; 4] = b"SHRE";

/// `spec_index` sentinel: the chunk indexes the flattened grid, not a
/// single spec.
pub const FLAT_GRID: u32 = u32::MAX;

/// The most bytes a `"SHRD"` assignment or `"SHRG"` registration frame
/// may take. Both are a few dozen fixed bytes plus one registry name or
/// socket address, so 4 KiB leaves ample room, while a peer that sends
/// more cannot make a worker or the worker pool allocate without bound.
pub(crate) const MAX_CONTROL_FRAME: usize = 4096;

/// One worker's chunk assignment: which campaign (by name and grid
/// fingerprint), which slice of it, and the worker's index for
/// fault-injection bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the worker this chunk goes to (also the injection key
    /// for [`crate::KILL_ENV`] / [`crate::HANG_ENV`]).
    pub worker_index: u32,
    /// Registry name of the campaign to re-derive.
    pub campaign: String,
    /// Coordinator's fingerprint of the derived grid; a worker whose
    /// own derivation differs refuses the assignment.
    pub grid_fp: u64,
    /// Grid position of the spec, or [`FLAT_GRID`] for the row-major
    /// flattened grid.
    pub spec_index: u32,
    /// First flat index of the chunk (inclusive).
    pub lo: u64,
    /// Last flat index of the chunk (exclusive).
    pub hi: u64,
}

/// Encodes an assignment as one `"SHRD"` frame.
pub fn encode_assignment(a: &Assignment) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(ASSIGN_MAGIC);
    out.put_u8(PROTOCOL_VERSION);
    out.put_u32(a.worker_index);
    out.put_u32(a.campaign.len() as u32);
    out.extend_from_slice(a.campaign.as_bytes());
    out.put_u64(a.grid_fp);
    out.put_u32(a.spec_index);
    out.put_u64(a.lo);
    out.put_u64(a.hi);
    out
}

/// Decodes an assignment frame that must span the whole buffer exactly.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] for malformed, truncated, or
/// inverted-chunk frames; never panics on arbitrary input.
pub fn decode_assignment(bytes: &[u8]) -> Result<Assignment, ShardError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != ASSIGN_MAGIC {
        return Err(ShardError::Protocol("bad assignment magic".into()));
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ShardError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let worker_index = r.u32()?;
    let name_len = r.u32()? as usize;
    let campaign = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| ShardError::Protocol("campaign name is not UTF-8".into()))?;
    let grid_fp = r.u64()?;
    let spec_index = r.u32()?;
    let lo = r.u64()?;
    let hi = r.u64()?;
    if r.remaining() != 0 {
        return Err(ShardError::Protocol(format!(
            "{} trailing bytes after assignment",
            r.remaining()
        )));
    }
    if lo > hi {
        return Err(ShardError::Protocol(format!("inverted chunk {lo}..{hi}")));
    }
    Ok(Assignment {
        worker_index,
        campaign,
        grid_fp,
        spec_index,
        lo,
        hi,
    })
}

/// Encodes a chunk's records as one `"SHRS"`…`"SHRE"` result stream.
pub fn encode_results(records: &[RunRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(RESULT_MAGIC);
    out.put_u8(PROTOCOL_VERSION);
    out.put_u32(records.len() as u32);
    for record in records {
        out.extend_from_slice(&record.encode());
    }
    out.extend_from_slice(RESULT_TRAILER);
    out
}

/// Decodes a result stream whose record count must equal `expected` —
/// the coordinator form, where the chunk bounds say how many records a
/// worker owes.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] for malformed or truncated streams
/// and for a count mismatch; never panics on arbitrary input.
pub fn decode_results(bytes: &[u8], expected: usize) -> Result<Vec<RunRecord>, ShardError> {
    let records = decode_result_stream(bytes)?;
    if records.len() != expected {
        return Err(ShardError::Protocol(format!(
            "worker returned {} records, chunk holds {expected}",
            records.len()
        )));
    }
    Ok(records)
}

/// Decodes a result stream trusting its embedded record count — the
/// client form, used on campaign-server response bodies whose length a
/// client does not know ahead of time. The magic, trailer, and
/// no-trailing-bytes checks still apply in full.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] for malformed or truncated streams;
/// never panics on arbitrary input.
pub fn decode_result_stream(bytes: &[u8]) -> Result<Vec<RunRecord>, ShardError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != RESULT_MAGIC {
        return Err(ShardError::Protocol("bad result magic".into()));
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ShardError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let count = r.u32()? as usize;
    // No with_capacity on the untrusted count: a lying header runs into
    // Truncated within one record's minimum size.
    let mut records = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        records.push(RunRecord::decode_from(&mut r)?);
    }
    if r.take(4)? != RESULT_TRAILER {
        return Err(ShardError::Protocol("missing result trailer".into()));
    }
    if r.remaining() != 0 {
        return Err(ShardError::Protocol(format!(
            "{} trailing bytes after results",
            r.remaining()
        )));
    }
    Ok(records)
}

/// Executes one chunk of the campaign in-process: the worker's compute
/// step, and the coordinator's deterministic fallback when a worker
/// fails — identical bytes either way, by purity of the jobs. With
/// [`FLAT_GRID`], `lo..hi` index the grid's [`FlatGrid`], so flat
/// indices mean the same thing on coordinator and worker.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] when the chunk bounds or spec index
/// do not fit the grid.
pub fn compute_chunk(
    grid: &[CampaignSpec],
    spec_index: u32,
    lo: usize,
    hi: usize,
) -> Result<Vec<RunRecord>, ShardError> {
    if spec_index == FLAT_GRID {
        let flat = FlatGrid::new(grid);
        let total = flat.jobs();
        if hi > total {
            return Err(ShardError::Protocol(format!(
                "chunk {lo}..{hi} exceeds {total} flat jobs"
            )));
        }
        Ok((lo..hi).map(|j| flat.run_job(j)).collect())
    } else {
        let spec = grid
            .get(spec_index as usize)
            .ok_or_else(|| ShardError::Protocol(format!("spec index {spec_index} out of range")))?;
        if hi > spec.runs {
            return Err(ShardError::Protocol(format!(
                "chunk {lo}..{hi} exceeds {} runs",
                spec.runs
            )));
        }
        Ok((lo..hi).map(|i| spec.run_job(i)).collect())
    }
}

fn injection_requested(env: &str, worker_index: u32) -> bool {
    std::env::var(env)
        .map(|v| {
            v.split(',')
                .any(|tok| tok.trim().parse::<u32>() == Ok(worker_index))
        })
        .unwrap_or(false)
}

pub(crate) fn kill_requested(worker_index: u32) -> bool {
    injection_requested(crate::KILL_ENV, worker_index)
}

pub(crate) fn hang_requested(worker_index: u32) -> bool {
    injection_requested(crate::HANG_ENV, worker_index)
}

/// How a [`serve_stream`] call ended, when it did not error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The assignment was computed and the full result stream written.
    Completed,
    /// [`crate::KILL_ENV`] named this worker index: the result magic was
    /// written and then the stream abandoned mid-protocol; the socket
    /// worker then drops the connection.
    InjectedKill,
}

/// Reads one control frame (`"SHRD"` or `"SHRG"`) to end-of-stream,
/// taking at most `MAX_CONTROL_FRAME + 1` bytes from `input`.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] when the stream holds more than
/// `MAX_CONTROL_FRAME` bytes, and an I/O [`ShardError`] when reading
/// fails.
pub(crate) fn read_control_frame(input: &mut dyn Read) -> Result<Vec<u8>, ShardError> {
    let mut frame = Vec::new();
    Read::take(input, MAX_CONTROL_FRAME as u64 + 1).read_to_end(&mut frame)?;
    if frame.len() > MAX_CONTROL_FRAME {
        return Err(ShardError::Protocol(format!(
            "control frame longer than {MAX_CONTROL_FRAME} bytes"
        )));
    }
    Ok(frame)
}

/// Serves one assignment: the worker side of the shard protocol, over
/// any transport.
///
/// Reads `input` to end-of-stream (the coordinator's write-half
/// shutdown; an assignment over 4 KiB is refused unread), decodes the
/// assignment, applies the kill/hang fault
/// injections, verifies the registry fingerprint handshake, computes
/// the chunk, and writes the result stream to `output`.
///
/// # Errors
///
/// Returns a [`ShardError`] for I/O failures, malformed assignments,
/// unknown campaigns, and fingerprint mismatches; the socket worker
/// surfaces it by dropping the connection.
pub fn serve_stream(
    input: &mut dyn Read,
    output: &mut dyn Write,
    registry: &CampaignRegistry,
) -> Result<ServeOutcome, ShardError> {
    let frame = read_control_frame(input)?;
    let assignment = decode_assignment(&frame)?;

    if kill_requested(assignment.worker_index) {
        // Die mid-protocol: magic written, records missing — the
        // coordinator must detect the truncation and re-run the chunk.
        output.write_all(RESULT_MAGIC)?;
        output.flush()?;
        return Ok(ServeOutcome::InjectedKill);
    }
    if hang_requested(assignment.worker_index) {
        // Hang without producing a byte: the coordinator's result
        // timeout must fire and re-run the chunk. park() may wake
        // spuriously, hence the loop.
        loop {
            std::thread::park();
        }
    }

    let grid = registry
        .derive(&assignment.campaign)
        .ok_or_else(|| ShardError::UnknownCampaign(assignment.campaign.clone()))?;
    let derived = grid_fingerprint(&grid);
    if derived != assignment.grid_fp {
        return Err(ShardError::FingerprintMismatch {
            expected: assignment.grid_fp,
            derived,
        });
    }

    let records = compute_chunk(
        &grid,
        assignment.spec_index,
        assignment.lo as usize,
        assignment.hi as usize,
    )?;
    output.write_all(&encode_results(&records))?;
    output.flush()?;
    Ok(ServeOutcome::Completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_testbed::ScenarioConfig;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 7000,
                    ..ScenarioConfig::default()
                },
                3,
            ),
            CampaignSpec::with_seed_offset(
                ScenarioConfig {
                    seed: 7000,
                    ..ScenarioConfig::default()
                },
                1000,
                2,
            ),
        ]
    }

    fn registry() -> CampaignRegistry {
        CampaignRegistry::new().register("demo", demo_grid)
    }

    #[test]
    fn assignment_roundtrips() {
        let a = Assignment {
            worker_index: 3,
            campaign: "table2".into(),
            grid_fp: 0xDEAD_BEEF_CAFE_F00D,
            spec_index: FLAT_GRID,
            lo: 64,
            hi: 128,
        };
        assert_eq!(decode_assignment(&encode_assignment(&a)), Ok(a));
    }

    #[test]
    fn assignment_rejects_garbage_and_truncation() {
        assert!(decode_assignment(b"nope").is_err());
        let a = Assignment {
            worker_index: 0,
            campaign: "x".into(),
            grid_fp: 1,
            spec_index: 0,
            lo: 0,
            hi: 4,
        };
        let bytes = encode_assignment(&a);
        for cut in 0..bytes.len() {
            assert!(decode_assignment(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut inverted = encode_assignment(&a);
        let n = inverted.len();
        // Swap lo and hi (the last two u64s).
        inverted[n - 16..].rotate_left(8);
        assert!(decode_assignment(&inverted).is_err());
    }

    #[test]
    fn results_roundtrip_and_reject_wrong_count() {
        let grid = demo_grid();
        let records = compute_chunk(&grid, 0, 0, 2).unwrap();
        let bytes = encode_results(&records);
        let back = decode_results(&bytes, 2).unwrap();
        assert_eq!(back, records);
        assert!(decode_results(&bytes, 3).is_err());
        for cut in 0..bytes.len() {
            assert!(decode_results(&bytes[..cut], 2).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn result_stream_decodes_without_expected_count() {
        let grid = demo_grid();
        let records = compute_chunk(&grid, 0, 0, 2).unwrap();
        let bytes = encode_results(&records);
        assert_eq!(decode_result_stream(&bytes).unwrap(), records);
        // The strictness survives: truncation and trailing bytes fail.
        for cut in 0..bytes.len() {
            assert!(decode_result_stream(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_result_stream(&padded).is_err());
    }

    #[test]
    fn flat_jobs_match_per_spec_jobs() {
        let grid = demo_grid();
        let per_spec: Vec<RunRecord> = grid
            .iter()
            .flat_map(|spec| (0..spec.runs).map(|i| spec.run_job(i)))
            .collect();
        assert_eq!(compute_chunk(&grid, FLAT_GRID, 0, 5).unwrap(), per_spec);
        // A chunk crossing the spec boundary: spec 0's last run, then
        // spec 1's first.
        assert_eq!(
            compute_chunk(&grid, FLAT_GRID, 2, 4).unwrap(),
            per_spec[2..4]
        );
    }

    #[test]
    fn compute_chunk_bounds_checked() {
        let grid = demo_grid();
        assert!(compute_chunk(&grid, 0, 0, 4).is_err());
        assert!(compute_chunk(&grid, 2, 0, 1).is_err());
        assert!(compute_chunk(&grid, FLAT_GRID, 0, 6).is_err());
        assert_eq!(compute_chunk(&grid, FLAT_GRID, 0, 5).unwrap().len(), 5);
    }

    #[test]
    fn serve_stream_answers_an_assignment_in_memory() {
        let grid = demo_grid();
        let assignment = Assignment {
            worker_index: 0,
            campaign: "demo".into(),
            grid_fp: grid_fingerprint(&grid),
            spec_index: FLAT_GRID,
            lo: 1,
            hi: 4,
        };
        let frame = encode_assignment(&assignment);
        let mut out = Vec::new();
        let outcome = serve_stream(&mut frame.as_slice(), &mut out, &registry()).unwrap();
        assert_eq!(outcome, ServeOutcome::Completed);
        let records = decode_results(&out, 3).unwrap();
        assert_eq!(records, compute_chunk(&grid, FLAT_GRID, 1, 4).unwrap());
    }

    #[test]
    fn serve_stream_refuses_wrong_fingerprint_and_unknown_campaign() {
        let grid = demo_grid();
        let mut wrong_fp = Assignment {
            worker_index: 0,
            campaign: "demo".into(),
            grid_fp: grid_fingerprint(&grid) ^ 1,
            spec_index: 0,
            lo: 0,
            hi: 1,
        };
        let frame = encode_assignment(&wrong_fp);
        let mut out = Vec::new();
        assert!(matches!(
            serve_stream(&mut frame.as_slice(), &mut out, &registry()),
            Err(ShardError::FingerprintMismatch { .. })
        ));
        assert!(out.is_empty(), "a refused assignment writes no bytes");

        wrong_fp.campaign = "nope".into();
        let frame = encode_assignment(&wrong_fp);
        assert!(matches!(
            serve_stream(&mut frame.as_slice(), &mut out, &registry()),
            Err(ShardError::UnknownCampaign(_))
        ));
    }

    // The kill-env assertions share one test: the variable is process
    // global and libtest runs tests concurrently.
    #[test]
    fn kill_injection_parses_and_truncates_mid_protocol() {
        std::env::set_var(crate::KILL_ENV, "1, 3, 7");
        assert!(!kill_requested(0));
        assert!(kill_requested(1));
        assert!(kill_requested(3));

        let grid = demo_grid();
        let assignment = Assignment {
            worker_index: 7,
            campaign: "demo".into(),
            grid_fp: grid_fingerprint(&grid),
            spec_index: 0,
            lo: 0,
            hi: 1,
        };
        let frame = encode_assignment(&assignment);
        let mut out = Vec::new();
        let outcome = serve_stream(&mut frame.as_slice(), &mut out, &registry()).unwrap();
        std::env::remove_var(crate::KILL_ENV);
        assert!(!kill_requested(1));
        assert_eq!(outcome, ServeOutcome::InjectedKill);
        // Exactly the truncation the coordinator must detect: magic
        // only, no version, no count, no trailer.
        assert_eq!(out, RESULT_MAGIC);
        assert!(decode_results(&out, 1).is_err());
    }

    /// A peer that would send `left` zero bytes; counts what it hands
    /// out.
    struct Flood {
        left: usize,
        handed_out: usize,
    }

    impl Read for Flood {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.left);
            buf[..n].fill(0);
            self.left -= n;
            self.handed_out += n;
            Ok(n)
        }
    }

    #[test]
    fn oversized_control_frames_are_refused_after_cap_plus_one_bytes() {
        const MIB: usize = 1 << 20;
        let mut flood = Flood {
            left: MIB,
            handed_out: 0,
        };
        assert!(matches!(
            read_control_frame(&mut flood),
            Err(ShardError::Protocol(_))
        ));
        assert_eq!(flood.handed_out, MAX_CONTROL_FRAME + 1);

        // The worker reads its assignment through the same bound.
        let mut flood = Flood {
            left: MIB,
            handed_out: 0,
        };
        let mut out = Vec::new();
        assert!(matches!(
            serve_stream(&mut flood, &mut out, &registry()),
            Err(ShardError::Protocol(_))
        ));
        assert_eq!(flood.handed_out, MAX_CONTROL_FRAME + 1);
        assert!(out.is_empty(), "a refused assignment writes no bytes");

        // A frame of exactly the cap is read in full.
        let mut flood = Flood {
            left: MAX_CONTROL_FRAME,
            handed_out: 0,
        };
        assert_eq!(
            read_control_frame(&mut flood).map(|f| f.len()),
            Ok(MAX_CONTROL_FRAME)
        );
    }

    #[test]
    fn hang_list_parses() {
        std::env::set_var(crate::HANG_ENV, "0,2");
        assert!(hang_requested(0));
        assert!(!hang_requested(1));
        assert!(hang_requested(2));
        std::env::remove_var(crate::HANG_ENV);
        assert!(!hang_requested(0));
    }
}
