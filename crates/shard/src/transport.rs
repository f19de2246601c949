//! The socket carrier for the shard frame protocol (DESIGN.md §14).
//!
//! [`protocol`](crate::protocol) defines the frames; this module moves
//! them. The coordinator side is [`TcpTransport`]: it connects to a
//! socket worker, writes the assignment, and shuts down the write half
//! so the worker sees end-of-assignment; a reader thread drains the
//! result stream, so workers on different links compute concurrently
//! while the coordinator collects in chunk order under a deadline.
//! [`collect_chunk`] decodes what arrives.
//!
//! The worker side is [`serve_connections`]: a loop that answers one
//! assignment per connection through the shared
//! [`serve_stream`]. Workers announce
//! their listening address to a coordinator with [`announce_worker`]
//! (`"SHRG"` registration frame), either from inside a test process or
//! from the hidden [`LISTEN_FLAG`] re-exec mode
//! ([`socket_worker_main_if_requested`]).

use crate::protocol::{read_control_frame, serve_stream, ServeOutcome};
use crate::ShardError;
use geonet::bytesio::{ByteReader, ByteWriterExt};
use its_testbed::campaign::CampaignRegistry;
use its_testbed::RunRecord;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// The hidden argv flag that switches a re-exec'd binary into socket
/// worker mode: `--shard-listen <coordinator-addr>` binds an ephemeral
/// listener, announces it to the coordinator, and serves assignments
/// forever.
pub const LISTEN_FLAG: &str = "--shard-listen";

/// Worker-registration frame magic (worker → coordinator control port).
const REGISTER_MAGIC: &[u8; 4] = b"SHRG";

/// Read timeout a socket worker applies per connection so one silent
/// peer cannot wedge the serve loop forever.
const WORKER_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Why a chunk could not be obtained from a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkFailure {
    /// The deadline passed with no complete stream; the connection was
    /// shut down. Counted separately so tests can assert the timeout
    /// path specifically was exercised.
    TimedOut,
    /// I/O error, or an invalid / wrong-length result stream.
    Failed(String),
}

/// Collects and decodes one chunk from a worker link: the coordinator's
/// per-chunk protocol step.
///
/// # Errors
///
/// [`ChunkFailure::TimedOut`] when the deadline fired,
/// [`ChunkFailure::Failed`] for I/O errors and for result streams that
/// do not decode to exactly `expected` records.
pub fn collect_chunk(
    link: &mut TcpTransport,
    expected: usize,
    timeout: Duration,
) -> Result<Vec<RunRecord>, ChunkFailure> {
    let bytes = link.collect_frame(timeout)?;
    crate::protocol::decode_results(&bytes, expected)
        .map_err(|e| ChunkFailure::Failed(e.to_string()))
}

/// A coordinator's link to one socket worker: one `TcpStream` per
/// chunk. End-of-assignment is the write-half shutdown; end-of-results
/// is the worker closing the connection.
///
/// The contract mirrors the protocol's shape: exactly one
/// [`send_frame`](Self::send_frame) (the assignment), then exactly one
/// [`collect_frame`](Self::collect_frame) (the complete result stream,
/// or a failure after which the connection has been shut down).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    rx: Option<mpsc::Receiver<std::io::Result<Vec<u8>>>>,
}

impl TcpTransport {
    /// Connects to a socket worker.
    ///
    /// # Errors
    ///
    /// Returns the connect error when the worker is unreachable.
    pub fn connect(addr: SocketAddr) -> Result<Self, ShardError> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
            rx: None,
        })
    }

    /// Ships the encoded assignment frame, signals end-of-frame, and
    /// starts the reader that drains the worker's result stream.
    ///
    /// # Errors
    ///
    /// Returns an I/O [`ShardError`] when the connection is already
    /// dead.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), ShardError> {
        self.stream.write_all(frame)?;
        self.stream.flush()?;
        // The worker reads the assignment to end-of-stream.
        self.stream.shutdown(Shutdown::Write)?;
        let mut reader = self.stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let result = reader.read_to_end(&mut buf).map(|_| buf);
            let _ = tx.send(result);
        });
        self.rx = Some(rx);
        Ok(())
    }

    /// Waits up to `timeout` for the worker's complete result stream.
    ///
    /// # Errors
    ///
    /// [`ChunkFailure::TimedOut`] when the deadline fired (the
    /// connection has been shut down), [`ChunkFailure::Failed`] for I/O
    /// errors and for a link that was never sent an assignment.
    pub fn collect_frame(&mut self, timeout: Duration) -> Result<Vec<u8>, ChunkFailure> {
        let Some(rx) = self.rx.take() else {
            return Err(ChunkFailure::Failed(
                "no assignment was sent on this link".into(),
            ));
        };
        match rx.recv_timeout(timeout) {
            Ok(Ok(bytes)) => Ok(bytes),
            Ok(Err(e)) => Err(ChunkFailure::Failed(e.to_string())),
            Err(_) => {
                // Reap the connection so the abandoned reader thread
                // unblocks; the worker sees a reset and moves on.
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(ChunkFailure::TimedOut)
            }
        }
    }
}

/// Announces a worker's listening address to a coordinator's control
/// port with a `"SHRG"` registration frame.
///
/// # Errors
///
/// Returns an I/O [`ShardError`] when the coordinator is unreachable.
pub fn announce_worker(coordinator: SocketAddr, worker: SocketAddr) -> Result<(), ShardError> {
    let mut stream = TcpStream::connect(coordinator)?;
    let text = worker.to_string();
    let mut frame = Vec::with_capacity(16 + text.len());
    frame.extend_from_slice(REGISTER_MAGIC);
    frame.put_u8(crate::protocol::PROTOCOL_VERSION);
    frame.put_u32(text.len() as u32);
    frame.extend_from_slice(text.as_bytes());
    stream.write_all(&frame)?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    Ok(())
}

/// Reads one `"SHRG"` registration frame from an accepted control
/// connection and returns the announced worker address.
///
/// # Errors
///
/// Returns [`ShardError::Protocol`] for malformed frames and for frames
/// over 4 KiB (read no further), and [`ShardError::Io`] for connection
/// failures.
pub fn read_announcement(stream: &mut TcpStream) -> Result<SocketAddr, ShardError> {
    stream.set_read_timeout(Some(WORKER_READ_TIMEOUT))?;
    let bytes = read_control_frame(stream)?;
    let mut r = ByteReader::new(&bytes);
    if r.take(4)? != REGISTER_MAGIC {
        return Err(ShardError::Protocol("bad registration magic".into()));
    }
    let version = r.u8()?;
    if version != crate::protocol::PROTOCOL_VERSION {
        return Err(ShardError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let len = r.u32()? as usize;
    let text = String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| ShardError::Protocol("worker address is not UTF-8".into()))?;
    if r.remaining() != 0 {
        return Err(ShardError::Protocol(format!(
            "{} trailing bytes after registration",
            r.remaining()
        )));
    }
    text.parse()
        .map_err(|_| ShardError::Protocol(format!("unparseable worker address `{text}`")))
}

/// Serves assignments on `listener` forever: one chunk per accepted
/// connection, each answered through the shared
/// [`serve_stream`]. Per-connection
/// errors (malformed frames, refused fingerprints, injected kills) are
/// confined to their connection — the coordinator sees a truncated or
/// empty stream and falls back; the loop keeps serving.
pub fn serve_connections(listener: &TcpListener, registry: &CampaignRegistry) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let _ = serve_one(stream, registry);
    }
}

fn serve_one(stream: TcpStream, registry: &CampaignRegistry) -> Result<ServeOutcome, ShardError> {
    stream.set_read_timeout(Some(WORKER_READ_TIMEOUT))?;
    let mut reader = stream.try_clone()?;
    let mut writer = &stream;
    let outcome = serve_stream(&mut reader, &mut writer, registry);
    if let Err(e) = &outcome {
        eprintln!("socket worker: {e}");
    }
    // Dropping the stream closes the connection: for a completed chunk
    // that is the result stream's end-of-stream; for an injected kill it
    // is the mid-protocol death the coordinator must recover from.
    outcome
}

/// Runs a socket worker to completion: binds an ephemeral loopback
/// listener, announces it to `coordinator`, and serves assignments
/// until the process dies.
///
/// # Errors
///
/// Returns the bind/announce error; the serve loop itself never
/// returns.
pub fn run_socket_worker(
    coordinator: SocketAddr,
    registry: &CampaignRegistry,
) -> Result<(), ShardError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let me = listener.local_addr()?;
    announce_worker(coordinator, me)?;
    serve_connections(&listener, registry);
    Ok(())
}

/// Enters socket-worker mode — and never returns — when
/// [`LISTEN_FLAG`] is on the command line; otherwise does nothing.
///
/// Host binaries that spawn socket workers by re-exec (the campaign
/// server example, the campaignd determinism test) must call this first
/// thing in `main`. The flag's value is the coordinator's control
/// address: `--shard-listen 127.0.0.1:9000` or
/// `--shard-listen=127.0.0.1:9000`.
pub fn socket_worker_main_if_requested(registry: &CampaignRegistry) {
    let mut args = std::env::args();
    let coordinator = loop {
        let Some(arg) = args.next() else { return };
        if arg == LISTEN_FLAG {
            break args.next().unwrap_or_default();
        }
        if let Some(v) = arg.strip_prefix("--shard-listen=") {
            break v.to_owned();
        }
    };
    let code = match coordinator.parse::<SocketAddr>() {
        Ok(addr) => match run_socket_worker(addr, registry) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("shard socket worker: {e}");
                3
            }
        },
        Err(_) => {
            eprintln!("shard socket worker: unparseable coordinator address `{coordinator}`");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{compute_chunk, encode_assignment, Assignment, FLAT_GRID};
    use its_testbed::campaign::{grid_fingerprint, CampaignSpec, FlatGrid};
    use its_testbed::ScenarioConfig;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![CampaignSpec::new(
            ScenarioConfig {
                seed: 7100,
                ..ScenarioConfig::default()
            },
            4,
        )]
    }

    fn registry() -> CampaignRegistry {
        CampaignRegistry::new().register("demo", demo_grid)
    }

    /// Boots an in-process socket worker thread; returns its address.
    fn spawn_worker_thread() -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
        let addr = listener.local_addr().expect("worker addr");
        std::thread::spawn(move || serve_connections(&listener, &registry()));
        addr
    }

    fn assignment(lo: u64, hi: u64) -> Assignment {
        Assignment {
            worker_index: 0,
            campaign: "demo".into(),
            grid_fp: grid_fingerprint(&demo_grid()),
            spec_index: FLAT_GRID,
            lo,
            hi,
        }
    }

    #[test]
    fn tcp_transport_runs_a_chunk_end_to_end() {
        let addr = spawn_worker_thread();
        let mut link = TcpTransport::connect(addr).expect("connect");
        link.send_frame(&encode_assignment(&assignment(1, 3)))
            .expect("send");
        let records = collect_chunk(&mut link, 2, Duration::from_secs(60)).expect("collect");
        assert_eq!(
            records,
            compute_chunk(&demo_grid(), FLAT_GRID, 1, 3).unwrap()
        );
    }

    #[test]
    fn tcp_worker_serves_consecutive_connections() {
        let addr = spawn_worker_thread();
        let grid = demo_grid();
        let total = FlatGrid::new(&grid).jobs();
        for lo in 0..total as u64 {
            let mut link = TcpTransport::connect(addr).expect("connect");
            link.send_frame(&encode_assignment(&assignment(lo, lo + 1)))
                .expect("send");
            let records = collect_chunk(&mut link, 1, Duration::from_secs(60)).expect("collect");
            assert_eq!(
                records,
                compute_chunk(&grid, FLAT_GRID, lo as usize, lo as usize + 1).unwrap()
            );
        }
    }

    #[test]
    fn wrong_expected_count_is_a_chunk_failure_not_a_panic() {
        let addr = spawn_worker_thread();
        let mut link = TcpTransport::connect(addr).expect("connect");
        link.send_frame(&encode_assignment(&assignment(0, 2)))
            .expect("send");
        let err = collect_chunk(&mut link, 3, Duration::from_secs(60)).unwrap_err();
        assert!(matches!(err, ChunkFailure::Failed(_)));
    }

    #[test]
    fn collect_without_send_fails_cleanly() {
        let addr = spawn_worker_thread();
        let mut link = TcpTransport::connect(addr).expect("connect");
        assert!(matches!(
            link.collect_frame(Duration::from_millis(100)),
            Err(ChunkFailure::Failed(_))
        ));
    }

    #[test]
    fn announcement_roundtrips_over_a_control_socket() {
        let ctrl = TcpListener::bind(("127.0.0.1", 0)).expect("bind ctrl");
        let ctrl_addr = ctrl.local_addr().expect("ctrl addr");
        let announced: SocketAddr = "127.0.0.1:45678".parse().unwrap();
        let sender = std::thread::spawn(move || announce_worker(ctrl_addr, announced));
        let (mut conn, _) = ctrl.accept().expect("accept");
        let got = read_announcement(&mut conn).expect("read announcement");
        sender.join().expect("join").expect("announce");
        assert_eq!(got, announced);
    }

    #[test]
    fn malformed_announcement_is_rejected() {
        let ctrl = TcpListener::bind(("127.0.0.1", 0)).expect("bind ctrl");
        let ctrl_addr = ctrl.local_addr().expect("ctrl addr");
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(ctrl_addr).expect("connect");
            s.write_all(b"nonsense").expect("write");
            s.shutdown(Shutdown::Write).expect("shutdown");
        });
        let (mut conn, _) = ctrl.accept().expect("accept");
        assert!(read_announcement(&mut conn).is_err());
        sender.join().expect("join");
    }
}
