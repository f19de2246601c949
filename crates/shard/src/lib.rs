//! The shard worker protocol and its socket carrier: how a campaign's
//! chunks reach worker processes and come back (DESIGN.md §10/§14).
//!
//! The in-process thread [`runner::Runner`] parallelises a campaign with
//! static contiguous chunks merged in index order. This crate carries
//! the same contract across *processes*, in two layers:
//!
//! * [`protocol`] — every byte of the worker protocol: the `"SHRD"`
//!   assignment frame, the `"SHRS"`…`"SHRE"` result stream of
//!   length-prefixed [`RunRecord`](its_testbed::RunRecord) frames
//!   ([`its_testbed::wire`]), the registry-fingerprint handshake, and
//!   the shared chunk math. The worker side is one function,
//!   [`protocol::serve_stream`], over generic `Read`/`Write`.
//! * [`transport`] — what carries those bytes: the coordinator's
//!   [`transport::TcpTransport`] link, and the socket worker loop
//!   ([`transport::serve_connections`]) that re-exec'd `--shard-listen`
//!   processes and in-process test threads run.
//!
//! The coordinator itself — chunk with [`runner::chunk_bounds`], send
//! every assignment eagerly, collect in chunk order, re-run failed
//! chunks in-process — is `campaignd::SocketFanout::run_flat`.
//!
//! # How a campaign crosses the process boundary
//!
//! Closures cannot be sent to another process, so workers *re-derive*
//! the campaign from code: the host binary registers named campaigns in
//! a [`CampaignRegistry`](its_testbed::campaign::CampaignRegistry) (a
//! name plus a plain `fn() -> Vec<CampaignSpec>`) and calls
//! [`transport::socket_worker_main_if_requested`] first thing in
//! `main`. The coordinator sends only the campaign name, a fingerprint
//! of the specs it expects
//! ([`its_testbed::campaign::grid_fingerprint`]), and the chunk bounds;
//! a worker whose derived specs do not match the fingerprint refuses
//! the assignment, and the coordinator re-executes the chunk in-process
//! — degraded to local execution, never to wrong results.
//!
//! # Example
//!
//! ```no_run
//! use its_testbed::campaign::{grid_fingerprint, CampaignRegistry, CampaignSpec};
//! use its_testbed::ScenarioConfig;
//! use shard::protocol::{compute_chunk, encode_assignment, Assignment, FLAT_GRID};
//! use shard::transport::{collect_chunk, serve_connections, TcpTransport};
//! use std::net::TcpListener;
//! use std::time::Duration;
//!
//! fn demo_grid() -> Vec<CampaignSpec> {
//!     vec![CampaignSpec::new(ScenarioConfig::default(), 16)]
//! }
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let worker = listener.local_addr().unwrap();
//! std::thread::spawn(move || {
//!     let registry = CampaignRegistry::new().register("demo", demo_grid);
//!     serve_connections(&listener, &registry);
//! });
//!
//! let mut link = TcpTransport::connect(worker).unwrap();
//! link.send_frame(&encode_assignment(&Assignment {
//!     worker_index: 0,
//!     campaign: "demo".into(),
//!     grid_fp: grid_fingerprint(&demo_grid()),
//!     spec_index: FLAT_GRID,
//!     lo: 0,
//!     hi: 16,
//! }), 16)
//! .unwrap();
//! let records = collect_chunk(&mut link, 16, Duration::from_secs(60)).unwrap();
//! assert_eq!(records, compute_chunk(&demo_grid(), FLAT_GRID, 0, 16).unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod protocol;
pub mod transport;

/// Fault-injection environment variable: a comma-separated list of
/// worker indices that must die mid-protocol (after the result magic,
/// before any record). Used by the determinism tests to exercise the
/// coordinator's recovery path.
pub const KILL_ENV: &str = "SHARD_INJECT_KILL";

/// Fault-injection environment variable: a comma-separated list of
/// worker indices that must hang forever after reading their
/// assignment, never writing a byte. Exercises the coordinator's
/// result-timeout path: the hung connection is shut down and its chunk
/// re-executed in-process.
pub const HANG_ENV: &str = "SHARD_INJECT_HANG";

/// Errors surfaced by the shard layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The named campaign is not in the registry.
    UnknownCampaign(String),
    /// A protocol frame was malformed.
    Protocol(String),
    /// The worker's derived specs do not match the coordinator's
    /// fingerprint.
    FingerprintMismatch {
        /// Fingerprint the coordinator sent.
        expected: u64,
        /// Fingerprint the worker derived.
        derived: u64,
    },
    /// An I/O error, stringified (io::Error is not Clone/PartialEq).
    Io(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownCampaign(name) => write!(f, "unknown campaign `{name}`"),
            ShardError::Protocol(what) => write!(f, "shard protocol error: {what}"),
            ShardError::FingerprintMismatch { expected, derived } => write!(
                f,
                "campaign fingerprint mismatch: coordinator {expected:#018x}, worker {derived:#018x}"
            ),
            ShardError::Io(what) => write!(f, "shard i/o error: {what}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e.to_string())
    }
}

impl From<geonet::GeonetError> for ShardError {
    fn from(e: geonet::GeonetError) -> Self {
        ShardError::Protocol(e.to_string())
    }
}

impl From<its_testbed::wire::WireError> for ShardError {
    fn from(e: its_testbed::wire::WireError) -> Self {
        ShardError::Protocol(e.to_string())
    }
}
