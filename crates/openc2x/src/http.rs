//! Minimal blocking HTTP/1.1 server and client on `std::net`.
//!
//! Implements just enough of HTTP/1.1 for the OpenC2X application API:
//! request line + headers + `Content-Length` bodies, fixed-length
//! responses, one request per connection (`Connection: close`
//! semantics). No external dependencies; every byte on the socket is
//! produced and parsed by this module.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sim_core::SimDuration;

/// An HTTP request as seen by a handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/request_denm`).
    pub path: String,
    /// Request body.
    pub body: Vec<u8>,
}

/// An HTTP response produced by a handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Content type (defaults to `application/octet-stream`).
    pub content_type: String,
}

impl Response {
    /// A 200 response with a body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            body: body.into(),
            content_type: "application/octet-stream".to_owned(),
        }
    }

    /// A 200 response with no body (OpenC2X's "no DENM found" answer).
    pub fn ok_empty() -> Self {
        Self::ok(Vec::new())
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        Self {
            status: 404,
            body: b"not found".to_vec(),
            content_type: "text/plain".to_owned(),
        }
    }

    /// A 400 response with a reason.
    pub fn bad_request(reason: &str) -> Self {
        Self::with_status(400, reason)
    }

    /// A plain-text response with an arbitrary status code — the
    /// campaign server's 409 Conflict (submission fingerprint mismatch)
    /// and 503 Service Unavailable (queue full) answers, and the
    /// server's own 408 for a request not in by [`REQUEST_DEADLINE`],
    /// 413 for a body above [`MAX_BODY_BYTES`], 431 for a head above
    /// [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`] and 503 for a connection
    /// past [`MAX_CONNECTIONS`], come through here.
    pub fn with_status(status: u16, reason: &str) -> Self {
        Self {
            status,
            body: reason.as_bytes().to_vec(),
            content_type: "text/plain".to_owned(),
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Content Too Large",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// The largest request body the server accepts, in bytes. A request
/// whose `Content-Length` is larger gets 413 before any body byte is
/// read or allocated. The largest legitimate request is far smaller: a
/// campaign submission is ~50 bytes, a DENM a few hundred.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// The largest request head (request line and header lines, line ends
/// included) the server accepts, in bytes. The server reads at most one
/// byte past it; a longer head gets 431 at that point. A client of this
/// crate sends ~80 bytes of head.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The most header lines a request may carry; the server answers 431 as
/// soon as it has read one more.
pub const MAX_HEADERS: usize = 64;

/// How long a client has to send its whole request, head and body. A
/// request not complete by then gets 408, however steadily its bytes
/// trickle in, so no client holds a server thread for longer.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// The most connections the server handles at once, one thread each.
/// The accept loop answers a connection past it with 503 and closes it,
/// so a flood of idle connections costs at most this many threads, each
/// bounded by [`REQUEST_DEADLINE`].
pub const MAX_CONNECTIONS: usize = 64;

/// A registered route handler.
type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// A tiny multi-threaded HTTP server.
///
/// # Example
///
/// ```no_run
/// use openc2x::http::{HttpServer, Response};
///
/// # fn main() -> std::io::Result<()> {
/// let mut server = HttpServer::new();
/// server.route("POST", "/trigger_denm", |req| {
///     Response::ok(req.body.clone())
/// });
/// let running = server.serve("127.0.0.1:0")?;
/// println!("listening on {}", running.addr());
/// running.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct HttpServer {
    routes: Vec<(String, String, Handler)>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl HttpServer {
    /// Creates a server with no routes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for `method` + `path`.
    pub fn route(
        &mut self,
        method: &str,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.routes
            .push((method.to_owned(), path.to_owned(), Box::new(handler)));
        self
    }

    /// Binds and starts serving on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(self, addr: &str) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let routes = Arc::new(self.routes);
        let live = Arc::new(AtomicUsize::new(0));
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Only this loop takes slots, so one it sees free stays
                // free until it takes it.
                if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    // Answered without reading the request, and closed.
                    let busy = Response::with_status(503, "too many connections");
                    let _ = write_response(&stream, &busy);
                    continue;
                }
                let slot = ConnectionSlot::take(&live);
                let routes = Arc::clone(&routes);
                // A thread that cannot start drops the closure, and with
                // it the stream and the slot.
                let _ = std::thread::Builder::new().spawn(move || {
                    let _slot = slot;
                    let _ = handle_connection(stream, &routes);
                });
            }
        });
        Ok(RunningServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }
}

/// One live connection's place in the server's count. Dropping it, as
/// the connection's thread ends, frees the place, also when a handler
/// panics.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    fn take(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(live))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(
    stream: TcpStream,
    routes: &[(String, String, Handler)],
) -> std::io::Result<()> {
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        // detlint:allow(D1) the request deadline bounds a host socket; no simulated time reads it
        started: std::time::Instant::now(),
    });
    let request = match parse_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let response = match e {
                RequestError::TimedOut => Response::with_status(408, "request timeout"),
                RequestError::TooLarge => Response::with_status(413, "request body too large"),
                RequestError::HeadTooLarge => Response::with_status(431, "request head too large"),
                RequestError::Malformed => Response::bad_request("malformed request"),
            };
            write_response(&stream, &response)?;
            return Ok(());
        }
    };
    let response = routes
        .iter()
        .find(|(m, p, _)| *m == request.method && *p == request.path)
        .map(|(_, _, h)| h(&request))
        .unwrap_or_else(Response::not_found);
    write_response(&stream, &response)
}

/// The connection's read side with one deadline for the whole request:
/// each read waits at most until [`REQUEST_DEADLINE`] after `started`,
/// then fails as timed out.
struct DeadlineReader {
    stream: TcpStream,
    // detlint:allow(D1) the request deadline bounds a host socket; no simulated time reads it
    started: std::time::Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = REQUEST_DEADLINE.saturating_sub(self.started.elapsed());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Why a request could not be parsed.
enum RequestError {
    /// The request was not complete by [`REQUEST_DEADLINE`].
    TimedOut,
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// The head exceeds [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    HeadTooLarge,
    /// No method or path, a head cut off before its blank line, a short
    /// body, or a read error.
    Malformed,
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // A socket read timeout surfaces as `WouldBlock` on Unix.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Self::TimedOut,
            _ => Self::Malformed,
        }
    }
}

/// Reads one head line into `line`, charging its bytes to `budget`.
/// Spending the whole budget means the head is over its cap; stopping
/// short of a line end means the peer closed before the head ended.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &mut Vec<u8>,
) -> Result<(), RequestError> {
    line.clear();
    let n = reader.take(*budget as u64).read_until(b'\n', line)?;
    *budget -= n;
    match (*budget, line.last()) {
        (0, _) => Err(RequestError::HeadTooLarge),
        (_, Some(b'\n')) => Ok(()),
        _ => Err(RequestError::Malformed),
    }
}

fn parse_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let mut budget = MAX_HEAD_BYTES + 1;
    let mut line = Vec::new();
    read_head_line(reader, &mut budget, &mut line)?;
    let request_line = std::str::from_utf8(&line).map_err(|_| RequestError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_owned();
    let path = parts.next().ok_or(RequestError::Malformed)?.to_owned();
    // Only Content-Length sizes the body; every header line counts
    // against the head caps and is then dropped. The last Content-Length
    // wins.
    let mut len = 0usize;
    for count in 0.. {
        read_head_line(reader, &mut budget, &mut line)?;
        let h = std::str::from_utf8(&line).map_err(|_| RequestError::Malformed)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(RequestError::HeadTooLarge);
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if len > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn write_response(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.status_text(),
        response.body.len(),
        response.content_type,
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Handle to a running server; dropping it shuts the server down.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_inner();
        }
    }
}

/// A client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Sends a blocking request and reads the full response.
///
/// # Errors
///
/// Returns connection or protocol errors.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut len = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse { status, body })
}

/// Convenience: POST to `http://addr/path`.
///
/// # Errors
///
/// Returns connection or protocol errors.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, body)
}

/// Deterministic bounded retry/backoff policy for the vehicle's OBU
/// poll path.
///
/// Mirrors the blocking HTTP client the real OpenC2X vehicle uses, but in
/// simulated time: each attempt either returns within the attempt window
/// or times out after a fixed 20 ms, and failed attempts back off
/// exponentially
/// (`backoff_base * backoff_factor^attempt`). The schedule is pure
/// arithmetic over [`SimDuration`] — no randomness, no wall clock — so
/// the DENM notification latency observed under a transient stall is an
/// exact function of the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(10),
            backoff_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// The backoff inserted after failed attempt `attempt` (0-based):
    /// `backoff_base * backoff_factor^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = u64::from(self.backoff_factor).saturating_pow(attempt);
        SimDuration::from_nanos(self.backoff_base.as_nanos().saturating_mul(factor))
    }
}

/// Simulated time charged to a poll attempt that stalls.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(20);

/// Error returned when every attempt of a retried poll stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollError {
    /// All attempts timed out; `waited` is the simulated time burned on
    /// timeouts and backoffs before giving up.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Total simulated time spent before giving up.
        waited: SimDuration,
    },
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RetriesExhausted { attempts, waited } => write!(
                f,
                "poll retries exhausted after {attempts} attempts ({} us waited)",
                waited.as_micros()
            ),
        }
    }
}

impl std::error::Error for PollError {}

/// Outcome of a successful (possibly retried) poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollOutcome {
    /// Attempts made, counting the successful one (1 = no retry needed).
    pub attempts: u32,
    /// Simulated delay accumulated by failed attempts before the
    /// successful one (zero when the first attempt succeeds).
    pub delay: SimDuration,
}

/// Runs the deterministic retry schedule of `policy` against `stalled`,
/// a predicate telling whether the attempt starting `offset` after the
/// poll began stalls (e.g. an injected fault window).
///
/// Returns the attempt count and accumulated pre-response delay on
/// success, or [`PollError::RetriesExhausted`] once the budget is spent.
/// A first-attempt success costs zero delay, making the retry path a
/// strict no-op for healthy links.
pub fn poll_with_retry(
    policy: &RetryPolicy,
    mut stalled: impl FnMut(u32, SimDuration) -> bool,
) -> Result<PollOutcome, PollError> {
    let attempts = policy.max_attempts.max(1);
    let mut waited = SimDuration::ZERO;
    for attempt in 0..attempts {
        if !stalled(attempt, waited) {
            return Ok(PollOutcome {
                attempts: attempt + 1,
                delay: waited,
            });
        }
        waited += ATTEMPT_TIMEOUT;
        if attempt + 1 < attempts {
            waited += policy.backoff(attempt);
        }
    }
    Err(PollError::RetriesExhausted { attempts, waited })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> RunningServer {
        let mut s = HttpServer::new();
        s.route("POST", "/echo", |req| Response::ok(req.body.clone()));
        s.route("GET", "/empty", |_| Response::ok_empty());
        s.serve("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn post_roundtrip() {
        let server = echo_server();
        let resp = post(server.addr(), "/echo", b"hello denm").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello denm");
        server.shutdown();
    }

    #[test]
    fn empty_body_and_get() {
        let server = echo_server();
        let resp = request(server.addr(), "GET", "/empty", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.is_empty());
        server.shutdown();
    }

    #[test]
    fn unknown_route_404() {
        let server = echo_server();
        let resp = post(server.addr(), "/nope", b"").unwrap();
        assert_eq!(resp.status, 404);
        server.shutdown();
    }

    #[test]
    fn with_status_carries_code_and_reason_over_the_wire() {
        let mut s = HttpServer::new();
        s.route("POST", "/full", |_| {
            Response::with_status(503, "queue full")
        });
        s.route("POST", "/clash", |_| {
            Response::with_status(409, "fingerprint mismatch")
        });
        let server = s.serve("127.0.0.1:0").expect("bind");
        let resp = post(server.addr(), "/full", b"").unwrap();
        assert_eq!(
            (resp.status, resp.body.as_slice()),
            (503, &b"queue full"[..])
        );
        let resp = post(server.addr(), "/clash", b"").unwrap();
        assert_eq!(resp.status, 409);
        server.shutdown();
    }

    #[test]
    fn binary_body_passes_through() {
        let server = echo_server();
        let body: Vec<u8> = (0..=255).collect();
        let resp = post(server.addr(), "/echo", &body).unwrap();
        assert_eq!(resp.body, body);
        server.shutdown();
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = vec![i as u8; 64];
                    let resp = post(addr, "/echo", &body).unwrap();
                    assert_eq!(resp.body, body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn first_attempt_success_is_free() {
        let outcome = poll_with_retry(&RetryPolicy::default(), |_, _| false).unwrap();
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.delay, SimDuration::ZERO);
    }

    #[test]
    fn retry_delay_follows_timeout_plus_exponential_backoff() {
        let policy = RetryPolicy::default();
        // Attempt 0 stalls, attempt 1 succeeds: 20 ms timeout + 10 ms backoff.
        let outcome = poll_with_retry(&policy, |attempt, _| attempt == 0).unwrap();
        assert_eq!(outcome.attempts, 2);
        assert_eq!(outcome.delay, SimDuration::from_millis(30));
        // Attempts 0 and 1 stall: 20 + 10 + 20 + 20 = 70 ms before attempt 2.
        let outcome = poll_with_retry(&policy, |attempt, _| attempt < 2).unwrap();
        assert_eq!(outcome.attempts, 3);
        assert_eq!(outcome.delay, SimDuration::from_millis(70));
    }

    #[test]
    fn stall_predicate_sees_accumulated_offset() {
        let policy = RetryPolicy::default();
        let mut offsets = Vec::new();
        let _ = poll_with_retry(&policy, |_, offset| {
            offsets.push(offset);
            true
        });
        assert_eq!(
            offsets,
            vec![
                SimDuration::ZERO,
                SimDuration::from_millis(30),
                SimDuration::from_millis(70),
            ]
        );
    }

    #[test]
    fn exhaustion_reports_attempts_and_waited_time() {
        let policy = RetryPolicy::default();
        let err = poll_with_retry(&policy, |_, _| true).unwrap_err();
        // 3 timeouts (60 ms) + backoffs 10 + 20 ms; no backoff after the last.
        assert_eq!(
            err,
            PollError::RetriesExhausted {
                attempts: 3,
                waited: SimDuration::from_millis(90),
            }
        );
    }

    #[test]
    fn zero_attempts_still_tries_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let outcome = poll_with_retry(&policy, |_, _| false).unwrap();
        assert_eq!(outcome.attempts, 1);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: 80,
            backoff_factor: u32::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff(70), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let server = echo_server();
        let addr = server.addr();
        drop(server);
        // After drop, connections should fail or be refused eventually.
        // (The OS may accept briefly; we only assert no panic occurred.)
        let _ = TcpStream::connect(addr);
    }
}
