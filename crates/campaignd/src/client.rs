//! Client side of the campaign server: submit by name, get records.
//!
//! A client shares the [`CampaignRegistry`](its_testbed::campaign::CampaignRegistry) *code* with the server, so
//! submitting is: derive the grid locally, build a
//! [`CampaignSubmission`] carrying its shape and fingerprint, POST it,
//! and decode the returned `"SHRS"`…`"SHRE"` result stream. The
//! fingerprint round-trip means a client can never silently receive
//! records for a different campaign than it derived.
//!
//! [`submit_with_retry`] reuses the OBU poll path's deterministic
//! [`RetryPolicy`] for transient conditions (a 503 full queue, a
//! connection refused while the server boots): the backoff schedule is
//! the same pure arithmetic, applied to wall-clock sleeps.

use its_testbed::campaign::CampaignSpec;
use its_testbed::submission::{encode_submission, CampaignSubmission};
use its_testbed::RunRecord;
use openc2x::http::{self, ClientResponse, RetryPolicy};
use shard::protocol::decode_result_stream;
use std::net::SocketAddr;
use std::time::Duration;

/// Why a submission did not yield records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Connecting or speaking HTTP failed (server down, mid-boot).
    Io(String),
    /// The server answered a non-200 status with a reason body.
    Status(u16, String),
    /// The 200 body was not a valid result stream.
    Protocol(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Io(e) => write!(f, "campaign submit i/o error: {e}"),
            SubmitError::Status(code, reason) => {
                write!(f, "campaign server answered {code}: {reason}")
            }
            SubmitError::Protocol(e) => write!(f, "campaign result stream invalid: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// POSTs an already-encoded submission frame and returns the raw HTTP
/// response — the byte-level entry point the determinism tests compare
/// against [`shard::protocol::encode_results`] output directly.
///
/// # Errors
///
/// Returns connection or protocol errors from the HTTP client.
pub fn submit_raw(addr: SocketAddr, frame: &[u8]) -> std::io::Result<ClientResponse> {
    http::post(addr, "/submit", frame)
}

/// Submits `campaign` (deriving the expected shape from the client's
/// own `grid`) and decodes the returned records.
///
/// # Errors
///
/// [`SubmitError::Io`] when the server is unreachable,
/// [`SubmitError::Status`] for 400/404/409/503 answers, and
/// [`SubmitError::Protocol`] when a 200 body fails to decode.
pub fn submit(
    addr: SocketAddr,
    campaign: &str,
    grid: &[CampaignSpec],
) -> Result<Vec<RunRecord>, SubmitError> {
    let frame = encode_submission(&CampaignSubmission::for_grid(campaign, grid));
    let resp = submit_raw(addr, &frame).map_err(|e| SubmitError::Io(e.to_string()))?;
    if resp.status != 200 {
        return Err(SubmitError::Status(
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        ));
    }
    decode_result_stream(&resp.body).map_err(|e| SubmitError::Protocol(e.to_string()))
}

/// Whether an error is worth retrying: the queue may drain (503) and a
/// booting server may start listening (connection refused); everything
/// else is a permanent answer.
fn transient(error: &SubmitError) -> bool {
    matches!(error, SubmitError::Status(503, _) | SubmitError::Io(_))
}

/// [`submit`], retried under `policy` for transient failures (503 full
/// queue, connection errors), with the policy's exponential backoff
/// slept between attempts.
///
/// # Errors
///
/// The last [`SubmitError`] once attempts are exhausted, or the first
/// permanent (non-transient) error immediately.
pub fn submit_with_retry(
    addr: SocketAddr,
    campaign: &str,
    grid: &[CampaignSpec],
    policy: &RetryPolicy,
) -> Result<Vec<RunRecord>, SubmitError> {
    let attempts = policy.max_attempts.max(1);
    let mut last = SubmitError::Io("no attempt made".into());
    for attempt in 0..attempts {
        match submit(addr, campaign, grid) {
            Ok(records) => return Ok(records),
            Err(e) if transient(&e) => {
                last = e;
                if attempt + 1 < attempts {
                    std::thread::sleep(Duration::from_nanos(policy.backoff(attempt).as_nanos()));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Fetches the server's campaign names (registration order).
///
/// # Errors
///
/// [`SubmitError::Io`] when unreachable, [`SubmitError::Status`] for
/// non-200 answers, [`SubmitError::Protocol`] for a non-UTF-8 body.
pub fn list_campaigns(addr: SocketAddr) -> Result<Vec<String>, SubmitError> {
    let resp = http::request(addr, "GET", "/campaigns", b"")
        .map_err(|e| SubmitError::Io(e.to_string()))?;
    if resp.status != 200 {
        return Err(SubmitError::Status(
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        ));
    }
    let text = String::from_utf8(resp.body)
        .map_err(|_| SubmitError::Protocol("campaign list is not UTF-8".into()))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect())
}
