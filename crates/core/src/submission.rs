//! Versioned binary codec for campaign *submissions* (DESIGN.md §14).
//!
//! A submission is what a client POSTs to the campaign server: the
//! [`CampaignRegistry`](crate::campaign::CampaignRegistry) name of the
//! campaign to run, the shape the client expects that campaign to have
//! (its [`SeedSchedule`] and total flat run count), and the client's
//! [`grid_fingerprint`] of the
//! derived grid. Server and client share the registry *code*, so the
//! request never serialises a `ScenarioConfig` — it names a derivation
//! and proves both sides derived the same thing, exactly like the shard
//! worker handshake (DESIGN.md §10).
//!
//! # Frame layout (version 1)
//!
//! ```text
//! [0..4)  magic           "CSUB"
//! u8      version         (SUBMISSION_VERSION = 1)
//! u32+…   campaign        name length + UTF-8 bytes
//! u8      seeds tag       0 = Consecutive, 1 = Offset (+ u64 offset)
//! u64     runs            expected total flat runs of the grid
//! u64     grid_fp         expected grid fingerprint
//! ```
//!
//! Decoding is strict: bad magic, unknown version, unknown schedule
//! tags, non-UTF-8 names, and trailing bytes are all typed errors —
//! never panics. Like [`crate::wire`], version bumps only ever append
//! fields; the codec lives in its own module so the `wire.schema`
//! append-only snapshot of the run-record layout is untouched by
//! submission changes.

use crate::campaign::{grid_fingerprint, CampaignSpec, SeedSchedule};
use geonet::bytesio::{ByteReader, ByteWriterExt};

/// Current submission codec version; bumped on any layout change
/// (append-only, like [`crate::wire::WIRE_VERSION`]).
pub const SUBMISSION_VERSION: u8 = 1;

/// Oldest version [`decode_submission`] still accepts.
pub const MIN_SUBMISSION_VERSION: u8 = 1;

/// Submission frame magic.
const SUBMISSION_MAGIC: &[u8; 4] = b"CSUB";

/// Seed-schedule tag bytes (wire values, never reordered).
const SEEDS_CONSECUTIVE: u8 = 0;
const SEEDS_OFFSET: u8 = 1;

/// One campaign submission: *which* registered campaign to run, and the
/// shape the client expects it to have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSubmission {
    /// Registry name of the campaign.
    pub campaign: String,
    /// Seed schedule the client expects the grid's first spec to use
    /// ([`SeedSchedule::Consecutive`] for an empty grid).
    pub seeds: SeedSchedule,
    /// Total flat runs the client expects across the whole grid.
    pub runs: u64,
    /// The client's fingerprint of the derived grid — the handshake the
    /// server answers 409 Conflict to when its own derivation differs.
    pub grid_fp: u64,
}

impl CampaignSubmission {
    /// Builds the submission a client sends for `campaign`, deriving the
    /// expected shape and fingerprint from its own copy of the grid.
    pub fn for_grid(campaign: &str, grid: &[CampaignSpec]) -> Self {
        Self {
            campaign: campaign.to_owned(),
            seeds: grid
                .first()
                .map(|s| s.seeds)
                .unwrap_or(SeedSchedule::Consecutive),
            runs: grid.iter().map(|s| s.runs as u64).sum(),
            grid_fp: grid_fingerprint(grid),
        }
    }

    /// Whether a server-side derivation matches this submission's
    /// expected shape and fingerprint.
    pub fn matches(&self, grid: &[CampaignSpec]) -> bool {
        let expected = Self::for_grid(&self.campaign, grid);
        *self == expected
    }
}

/// Error produced when decoding a submission frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmissionError {
    /// The buffer ended before the frame was complete.
    Truncated {
        /// Bytes needed by the failed read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The frame does not start with the submission magic.
    BadMagic,
    /// The version byte names a layout this build does not know.
    UnsupportedVersion(u8),
    /// The seed-schedule tag byte is unknown.
    BadScheduleTag(u8),
    /// The campaign name is not valid UTF-8.
    BadUtf8,
    /// Bytes left over after the declared structure.
    TrailingBytes(usize),
}

impl std::fmt::Display for SubmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmissionError::Truncated { needed, remaining } => write!(
                f,
                "truncated submission frame: needed {needed} bytes, {remaining} remaining"
            ),
            SubmissionError::BadMagic => write!(f, "bad submission magic"),
            SubmissionError::UnsupportedVersion(v) => {
                write!(f, "unsupported submission version {v}")
            }
            SubmissionError::BadScheduleTag(t) => write!(f, "unknown seed-schedule tag {t:#x}"),
            SubmissionError::BadUtf8 => write!(f, "campaign name is not valid UTF-8"),
            SubmissionError::TrailingBytes(n) => write!(f, "{n} trailing bytes after submission"),
        }
    }
}

impl std::error::Error for SubmissionError {}

impl From<geonet::GeonetError> for SubmissionError {
    fn from(e: geonet::GeonetError) -> Self {
        match e {
            geonet::GeonetError::Truncated { needed, remaining } => {
                SubmissionError::Truncated { needed, remaining }
            }
            // ByteReader only ever reports truncation; the arm exists
            // because GeonetError is non_exhaustive.
            _ => SubmissionError::Truncated {
                needed: 0,
                remaining: 0,
            },
        }
    }
}

/// Encodes a submission as one version-1 frame.
pub fn encode_submission(sub: &CampaignSubmission) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + sub.campaign.len());
    out.extend_from_slice(SUBMISSION_MAGIC);
    out.put_u8(SUBMISSION_VERSION);
    out.put_u32(sub.campaign.len() as u32);
    out.extend_from_slice(sub.campaign.as_bytes());
    match sub.seeds {
        SeedSchedule::Consecutive => out.put_u8(SEEDS_CONSECUTIVE),
        SeedSchedule::Offset(offset) => {
            out.put_u8(SEEDS_OFFSET);
            out.put_u64(offset);
        }
    }
    out.put_u64(sub.runs);
    out.put_u64(sub.grid_fp);
    out
}

/// Decodes one submission frame that must span the whole buffer exactly.
///
/// # Errors
///
/// Returns a [`SubmissionError`] for truncated, malformed, or
/// unknown-version frames; never panics on arbitrary input.
pub fn decode_submission(bytes: &[u8]) -> Result<CampaignSubmission, SubmissionError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != SUBMISSION_MAGIC {
        return Err(SubmissionError::BadMagic);
    }
    let version = r.u8()?;
    if !(MIN_SUBMISSION_VERSION..=SUBMISSION_VERSION).contains(&version) {
        return Err(SubmissionError::UnsupportedVersion(version));
    }
    let name_len = r.u32()? as usize;
    let campaign =
        String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| SubmissionError::BadUtf8)?;
    let seeds = match r.u8()? {
        SEEDS_CONSECUTIVE => SeedSchedule::Consecutive,
        SEEDS_OFFSET => SeedSchedule::Offset(r.u64()?),
        t => return Err(SubmissionError::BadScheduleTag(t)),
    };
    let runs = r.u64()?;
    let grid_fp = r.u64()?;
    if r.remaining() != 0 {
        return Err(SubmissionError::TrailingBytes(r.remaining()));
    }
    Ok(CampaignSubmission {
        campaign,
        seeds,
        runs,
        grid_fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use proptest::prelude::*;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![
            CampaignSpec::with_seed_offset(ScenarioConfig::default(), 1000, 3),
            CampaignSpec::new(ScenarioConfig::default(), 2),
        ]
    }

    #[test]
    fn for_grid_captures_shape_and_fingerprint() {
        let grid = demo_grid();
        let sub = CampaignSubmission::for_grid("table3", &grid);
        assert_eq!(sub.campaign, "table3");
        assert_eq!(sub.seeds, SeedSchedule::Offset(1000));
        assert_eq!(sub.runs, 5);
        assert_eq!(sub.grid_fp, grid_fingerprint(&grid));
        assert!(sub.matches(&grid));
        assert!(!sub.matches(&grid[..1]));
        let empty = CampaignSubmission::for_grid("empty", &[]);
        assert_eq!(empty.seeds, SeedSchedule::Consecutive);
        assert_eq!(empty.runs, 0);
    }

    #[test]
    fn roundtrips_both_schedules() {
        for seeds in [SeedSchedule::Consecutive, SeedSchedule::Offset(9000)] {
            let sub = CampaignSubmission {
                campaign: "city_sweep".to_owned(),
                seeds,
                runs: 42,
                grid_fp: 0xDEAD_BEEF_CAFE_F00D,
            };
            assert_eq!(decode_submission(&encode_submission(&sub)), Ok(sub));
        }
    }

    #[test]
    fn rejects_bad_magic_version_tag_and_trailing() {
        let sub = CampaignSubmission {
            campaign: "x".to_owned(),
            seeds: SeedSchedule::Consecutive,
            runs: 1,
            grid_fp: 7,
        };
        let good = encode_submission(&sub);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_submission(&bad), Err(SubmissionError::BadMagic));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            decode_submission(&bad),
            Err(SubmissionError::UnsupportedVersion(99))
        );
        bad[4] = 0; // version 0 never shipped
        assert_eq!(
            decode_submission(&bad),
            Err(SubmissionError::UnsupportedVersion(0))
        );

        let mut bad = good.clone();
        // Schedule tag sits right after the 1-byte name.
        bad[4 + 1 + 4 + 1] = 9;
        assert_eq!(
            decode_submission(&bad),
            Err(SubmissionError::BadScheduleTag(9))
        );

        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(
            decode_submission(&padded),
            Err(SubmissionError::TrailingBytes(1))
        );
    }

    #[test]
    fn every_strict_prefix_fails_cleanly() {
        let sub = CampaignSubmission::for_grid("table2", &demo_grid());
        let bytes = encode_submission(&sub);
        for cut in 0..bytes.len() {
            assert!(decode_submission(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = decode_submission(&bytes);
        }

        #[test]
        fn corrupted_byte_never_panics(flip in 0usize..64, xor in 1u8..=255) {
            let mut bytes = encode_submission(&CampaignSubmission::for_grid("t", &demo_grid()));
            let flip = flip % bytes.len();
            bytes[flip] ^= xor;
            // Either a clean error or a decode of a different submission —
            // never a panic.
            let _ = decode_submission(&bytes);
        }

        #[test]
        fn arbitrary_submissions_roundtrip(
            name in "\\PC{0,24}",
            offset in proptest::option::of(any::<u64>()),
            runs in any::<u64>(),
            fp in any::<u64>(),
        ) {
            let sub = CampaignSubmission {
                campaign: name,
                seeds: offset.map_or(SeedSchedule::Consecutive, SeedSchedule::Offset),
                runs,
                grid_fp: fp,
            };
            prop_assert_eq!(decode_submission(&encode_submission(&sub)), Ok(sub));
        }
    }
}
